package service

// Tests for the per-request ExecSpec surface (program arguments and
// memory overlays), the response-stack cap, and the Prometheus
// exposition of the service metrics.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// TestArgsExecuteCachedProgram is the acceptance check for open
// program arguments: one cached program, two argument sets — the
// second request must hit the cache (no recompile; the key covers only
// the source) and produce a different result.
func TestArgsExecuteCachedProgram(t *testing.T) {
	s := mustService(t)
	src := ": main + . ;"

	r1, err := s.Run(context.Background(), Request{Source: src, Args: []vm.Cell{30, 12}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != "42 " || r1.CacheHit {
		t.Fatalf("first run: output %q hit %v, want %q on a miss", r1.Output, r1.CacheHit, "42 ")
	}
	r2, err := s.Run(context.Background(), Request{Source: src, Args: []vm.Cell{7, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Output != "12 " {
		t.Errorf("second run: output %q, want %q", r2.Output, "12 ")
	}
	if !r2.CacheHit {
		t.Error("second run with different args recompiled the program")
	}
	if r1.Key != r2.Key {
		t.Errorf("keys differ across arg sets: %q vs %q (args leaked into the cache key)", r1.Key, r2.Key)
	}
	if s.Stats().CacheMisses != 1 {
		t.Errorf("cache misses %d, want 1 (one source, compiled once)", s.Stats().CacheMisses)
	}
}

// TestArgsOnEveryEngine runs an argumented program under every
// servable engine.
func TestArgsOnEveryEngine(t *testing.T) {
	s := mustService(t)
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(),
			Request{Source: ": main - . ;", Engine: e, Args: []vm.Cell{50, 8}})
		if err != nil {
			t.Errorf("%s: %v", e, err)
			continue
		}
		if resp.Output != "42 " {
			t.Errorf("%s: output %q, want %q", e, resp.Output, "42 ")
		}
	}
}

// TestMemOverlay seeds data memory through the request: the program
// reads a cell the overlay wrote.
func TestMemOverlay(t *testing.T) {
	s := mustService(t)
	// "variable x" allocates cell 0; the overlay then provides its
	// value.
	src := "variable x : main x @ . ;"
	mem := make([]byte, 8)
	mem[0] = 42 // little-endian cell 0 = 42
	resp, err := s.Run(context.Background(), Request{Source: src, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "42 " {
		t.Errorf("output %q, want %q", resp.Output, "42 ")
	}
	// Oversized overlay: classified, not executed.
	_, err = s.Run(context.Background(),
		Request{Source: src, Mem: make([]byte, 1<<20)})
	if Classify(err) != ClassBadRequest {
		t.Errorf("oversized overlay classified %s, want bad_request", Classify(err))
	}
}

// TestArgsTooLarge: more initial cells than the stack holds is a
// client error, rejected before compilation queueing.
func TestArgsTooLarge(t *testing.T) {
	s := mustService(t)
	_, err := s.Run(context.Background(),
		Request{Source: addSource, Args: make([]vm.Cell, interp.DefaultStackCap+1)})
	if Classify(err) != ClassBadRequest {
		t.Errorf("oversized args classified %s, want bad_request", Classify(err))
	}
}

// TestStackCapLimitsResponses: a program halting deeper than
// MaxStackCells fails with the limit class, ships a truncated stack,
// and reports the true depth.
func TestStackCapLimitsResponses(t *testing.T) {
	const cap = 8
	s := mustService(t, func(c *Config) { c.MaxStackCells = cap })
	deep := ": main " + strings.Repeat("1 ", cap+3) + ";"
	resp, err := s.Run(context.Background(), Request{Source: deep})
	if Classify(err) != ClassLimit {
		t.Fatalf("deep halt classified %s (err %v), want limit", Classify(err), err)
	}
	if resp == nil {
		t.Fatal("stack-cap error lost the partial response")
	}
	if len(resp.Stack) != cap {
		t.Errorf("shipped %d cells, cap is %d", len(resp.Stack), cap)
	}
	if resp.StackDepth != cap+3 {
		t.Errorf("reported depth %d, want %d", resp.StackDepth, cap+3)
	}
	// At the cap is fine.
	ok := ": main " + strings.Repeat("1 ", cap) + ";"
	resp, err = s.Run(context.Background(), Request{Source: ok})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Stack) != cap || resp.StackDepth != cap {
		t.Errorf("at-cap run: %d cells depth %d, want %d/%d", len(resp.Stack), resp.StackDepth, cap, cap)
	}
}

// TestPrometheusExposition drives some traffic and checks /metrics'
// encoder emits parseable Prometheus text covering the counters the
// JSON snapshot carries.
func TestPrometheusExposition(t *testing.T) {
	s := mustService(t)
	for _, e := range []string{"switch", "static"} {
		if _, err := s.Run(context.Background(), Request{Source: addSource, Engine: e}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(context.Background(), Request{Source: spinSource, MaxSteps: 1000}); err == nil {
		t.Fatal("spin run unexpectedly succeeded")
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s.Stats()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Structural parse: every non-comment line is `name{labels} value`
	// with a numeric value; TYPE lines declare only counter/gauge/
	// histogram; HELP precedes each family's samples.
	types := map[string]string{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: bad metric type %q", ln+1, parts[3])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		var value float64
		rest := line[strings.LastIndex(line, " ")+1:]
		if _, err := fmt.Sscanf(rest, "%g", &value); err != nil {
			t.Fatalf("line %d: unparseable sample %q: %v", ln+1, line, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q precedes its TYPE", ln+1, name)
			}
		}
		seen[base] = true
	}

	for _, want := range []string{
		"vmd_requests_total", "vmd_completed_total",
		"vmd_cache_hits_total", "vmd_cache_misses_total",
		"vmd_results_total", "vmd_engine_requests_total",
		"vmd_engine_steps_total", "vmd_exec_latency_seconds",
		"vmd_batch_inputs_total", "vmd_batch_size",
	} {
		if !seen[want] && !seen[strings.TrimSuffix(want, "_total")] {
			t.Errorf("metric family %s missing from exposition:\n%s", want, text)
		}
	}
	for _, frag := range []string{
		`vmd_results_total{class="ok"} 2`,
		`vmd_results_total{class="limit"} 1`,
		`vmd_engine_requests_total{engine="switch"} 2`,
		`vmd_engine_requests_total{engine="static"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, text)
		}
	}
}
