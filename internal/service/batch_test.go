package service

// Tests for batch execution (Request.Inputs): per-input isolation,
// budget rejection, singleton/batch mutual exclusion, pooled-machine
// hygiene across inputs, batch metrics, and the differential check
// that a batch of N is observably identical to N singleton runs —
// swept across every engine the registry serves.

import (
	"context"
	"fmt"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// addArgsSource consumes two arguments; with none it underflows.
const addArgsSource = ": main + . ;"

func cellsEqual(a, b []vm.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchAllEngines is the acceptance path: one program, many
// argument sets, one request — per-input outputs in input order, the
// top-level step count summing the inputs, on every servable engine.
func TestBatchAllEngines(t *testing.T) {
	s := mustService(t)
	inputs := []Input{
		{Args: []vm.Cell{1, 2}},
		{Args: []vm.Cell{40, 2}},
		{Args: []vm.Cell{-5, 5}},
	}
	wantOut := []string{"3 ", "42 ", "0 "}
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(),
			Request{Source: addArgsSource, Engine: e, Inputs: inputs})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if len(resp.Results) != len(inputs) {
			t.Fatalf("%s: %d results, want %d", e, len(resp.Results), len(inputs))
		}
		if resp.Output != "" || len(resp.Stack) != 0 {
			t.Errorf("%s: batch response carries singleton output/stack: %q %v",
				e, resp.Output, resp.Stack)
		}
		var steps int64
		for i, r := range resp.Results {
			if r.Err != nil {
				t.Errorf("%s: input %d failed: %v", e, i, r.Err)
				continue
			}
			if r.Output != wantOut[i] {
				t.Errorf("%s: input %d output %q, want %q", e, i, r.Output, wantOut[i])
			}
			if r.Class() != ClassOK {
				t.Errorf("%s: input %d class %s, want ok", e, i, r.Class())
			}
			if r.Steps == 0 {
				t.Errorf("%s: input %d reports zero steps", e, i)
			}
			steps += r.Steps
		}
		if resp.Steps != steps {
			t.Errorf("%s: response steps %d, want the per-input sum %d", e, resp.Steps, steps)
		}
	}
	// One source: compiled exactly once across every engine's batch.
	if got := s.Stats().CacheMisses; got != 1 {
		t.Errorf("cache misses %d, want 1", got)
	}
}

// TestBatchPerInputIsolation: a failing input (division by zero — a
// runtime error on every engine, unlike shallow underflows, which the
// static engine's guard zone absorbs by design) reports its own
// classified error while every other input of the batch still
// executes, on every engine.
func TestBatchPerInputIsolation(t *testing.T) {
	s := mustService(t)
	src := ": main / . ;"
	inputs := []Input{
		{Args: []vm.Cell{6, 2}},
		{Args: []vm.Cell{1, 0}}, // division by zero: runtime error
		{Args: []vm.Cell{84, 2}},
	}
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(),
			Request{Source: src, Engine: e, Inputs: inputs})
		if err != nil {
			t.Fatalf("%s: batch failed as a whole: %v", e, err)
		}
		if got := resp.Results[0].Output; got != "3 " {
			t.Errorf("%s: input 0 output %q, want %q", e, got, "3 ")
		}
		if got := resp.Results[1].Class(); got != ClassRuntime {
			t.Errorf("%s: failing input classified %s, want runtime", e, got)
		}
		if got := resp.Results[2].Output; got != "42 " {
			t.Errorf("%s: input 2 (after the failure) output %q, want %q", e, got, "42 ")
		}
	}
}

// TestBatchEqualsSingletons is the differential check: a batch of N
// inputs must be observably identical, input by input — output, stack,
// depth, steps, error class — to N singleton runs of the same program,
// on every engine. Inputs include argument sets, a memory overlay and
// a failing input.
func TestBatchEqualsSingletons(t *testing.T) {
	s := mustService(t)
	// Reads the overlay-seeded cell 0, then prints the argument sum.
	src := "variable x : main x @ . + . ;"
	overlay := make([]byte, 8)
	overlay[0] = 9
	inputs := []Input{
		{Args: []vm.Cell{1, 2}},
		{Args: []vm.Cell{30, 12}, Mem: overlay},
		{Args: []vm.Cell{7}}, // "+" underflows after printing x
		{Args: []vm.Cell{-3, 3}},
	}
	for _, e := range s.Engines() {
		batch, err := s.Run(context.Background(),
			Request{Source: src, Engine: e, Inputs: inputs})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for i, in := range inputs {
			single, serr := s.Run(context.Background(),
				Request{Source: src, Engine: e, Args: in.Args, Mem: in.Mem})
			r := batch.Results[i]
			if got, want := r.Class(), Classify(serr); got != want {
				t.Errorf("%s: input %d class %s, singleton says %s", e, i, got, want)
			}
			if single == nil {
				t.Fatalf("%s: input %d: singleton lost its response (err %v)", e, i, serr)
			}
			if r.Output != single.Output {
				t.Errorf("%s: input %d output %q, singleton %q", e, i, r.Output, single.Output)
			}
			if !cellsEqual(r.Stack, single.Stack) {
				t.Errorf("%s: input %d stack %v, singleton %v", e, i, r.Stack, single.Stack)
			}
			if r.StackDepth != single.StackDepth {
				t.Errorf("%s: input %d depth %d, singleton %d", e, i, r.StackDepth, single.StackDepth)
			}
			if r.Steps != single.Steps {
				t.Errorf("%s: input %d steps %d, singleton %d", e, i, r.Steps, single.Steps)
			}
		}
	}
}

// TestBatchPooledMachineNoLeak pins down input-to-input hygiene on the
// single hot machine of a one-worker service: an input that dirties
// output, stack and data memory (and then fails) must not leak any of
// it into the next input of the same batch.
func TestBatchPooledMachineNoLeak(t *testing.T) {
	s := mustService(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
	})
	// Prints depth, stores 77 into cell 0, prints cell 0, then adds
	// the two arguments: with fewer than two it underflows after the
	// store, leaving dirty memory, output and stack behind.
	src := "variable x : main depth . 77 x ! x @ . + . ;"
	inputs := []Input{
		{Args: []vm.Cell{5}},     // depth 1, store, print, underflow
		{Args: []vm.Cell{20, 1}}, // must see a pristine machine
	}
	resp, err := s.Run(context.Background(), Request{Source: src, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Class(); got != ClassRuntime {
		t.Fatalf("dirty input classified %s, want runtime", got)
	}
	clean := resp.Results[1]
	if clean.Err != nil {
		t.Fatalf("clean input failed: %v", clean.Err)
	}
	// depth 2 (its own args only), x freshly re-seeded from the image
	// (0) then stored to 77, sum 21; nothing from input 0.
	if clean.Output != "2 77 21 " {
		t.Errorf("clean input output %q, want %q (state leaked across inputs)",
			clean.Output, "2 77 21 ")
	}
	if len(clean.Stack) != 0 {
		t.Errorf("clean input stack %v, want empty", clean.Stack)
	}
}

// TestBatchRejections covers the request-validation half of the batch
// surface: mutual exclusion with the singleton fields, the
// MaxBatchInputs cap, and per-input argument/overlay budgets, all
// ClassBadRequest before anything executes.
func TestBatchRejections(t *testing.T) {
	s := mustService(t, func(c *Config) { c.MaxBatchInputs = 4 })
	one := []Input{{Args: []vm.Cell{1, 2}}}
	cases := []struct {
		name string
		req  Request
	}{
		{"inputs+args", Request{Source: addArgsSource, Args: []vm.Cell{1, 2}, Inputs: one}},
		{"inputs+mem", Request{Source: addArgsSource, Mem: []byte{0}, Inputs: one}},
		{"too many inputs", Request{Source: addArgsSource, Inputs: make([]Input, 5)}},
		{"oversized input args", Request{Source: addArgsSource,
			Inputs: []Input{{Args: make([]vm.Cell, interp.DefaultStackCap+1)}}}},
		{"oversized input mem", Request{Source: addArgsSource,
			Inputs: []Input{{Mem: make([]byte, 1<<20)}}}},
	}
	for _, tc := range cases {
		_, err := s.Run(context.Background(), tc.req)
		if Classify(err) != ClassBadRequest {
			t.Errorf("%s: classified %s, want bad_request", tc.name, Classify(err))
		}
	}
	// At the cap is fine.
	resp, err := s.Run(context.Background(),
		Request{Source: addArgsSource, Inputs: make([]Input, 4)})
	if err != nil {
		t.Fatalf("at-cap batch rejected: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Errorf("at-cap batch returned %d results, want 4", len(resp.Results))
	}
}

// TestBatchMetrics checks the batch counters: total inputs, the size
// histogram, per-input result classes, and the request-level invariant
// that a batch is exactly one completed request.
func TestBatchMetrics(t *testing.T) {
	s := mustService(t)
	// Batch of 3 (one failing input), then a batch of 1.
	if _, err := s.Run(context.Background(), Request{Source: addArgsSource, Inputs: []Input{
		{Args: []vm.Cell{1, 2}}, {}, {Args: []vm.Cell{3, 4}},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), Request{Source: addArgsSource, Inputs: []Input{
		{Args: []vm.Cell{5, 6}},
	}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	if snap.BatchInputs != 4 {
		t.Errorf("batch inputs %d, want 4", snap.BatchInputs)
	}
	// Size 3 lands in the <=4 bucket (index 2), size 1 in <=1 (index 0).
	if snap.BatchSizes[0] != 1 || snap.BatchSizes[2] != 1 {
		t.Errorf("batch size buckets %v (bounds %v), want one batch each in <=1 and <=4",
			snap.BatchSizes, snap.BatchSizeBounds)
	}
	if snap.BatchInputResults["ok"] != 3 || snap.BatchInputResults["runtime"] != 1 {
		t.Errorf("batch input results %v, want 3 ok + 1 runtime", snap.BatchInputResults)
	}
	// Two requests, both completed ok: per-input failures are not
	// request failures.
	if snap.Requests != 2 || snap.Completed != 2 || snap.Errors["ok"] != 2 {
		t.Errorf("requests %d completed %d errors %v, want 2/2 with 2 ok",
			snap.Requests, snap.Completed, snap.Errors)
	}
}

// TestNilContextRun is the regression for the nil-context panic: Run
// used to select on ctx.Done() unconditionally, so a nil context
// panicked before ever reaching the worker's nil guard.
func TestNilContextRun(t *testing.T) {
	s := mustService(t)
	//lint:ignore SA1012 deliberately nil: the regression under test.
	resp, err := s.Run(nil, Request{Source: addSource}) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
	if resp.Output != "3 " {
		t.Errorf("nil-context run output %q, want %q", resp.Output, "3 ")
	}
}

// TestCompletedResultBeatsCanceledContext is the regression for the
// completed-vs-canceled race in Run's final select: with the buffered
// done channel and ctx.Done() both ready, the random select could
// discard a finished execution and misreport it as ClassCanceled.
// await must prefer the delivered result.
func TestCompletedResultBeatsCanceledContext(t *testing.T) {
	s := mustService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		t1 := &task{done: make(chan result, 1)}
		want := &Response{Output: fmt.Sprintf("run %d", i)}
		t1.done <- result{resp: want}
		resp, err := s.await(ctx, t1, true)
		if err != nil {
			t.Fatalf("iteration %d: delivered result misreported as %s", i, Classify(err))
		}
		if resp != want || !resp.CacheHit {
			t.Fatalf("iteration %d: got %+v, want the delivered response marked as a hit", i, resp)
		}
	}
	// The delivered results must have been recorded as ok, and none
	// as canceled.
	snap := s.Stats()
	if snap.Errors["ok"] != 100 || snap.Errors["canceled"] != 0 {
		t.Errorf("errors %v, want 100 ok and no canceled", snap.Errors)
	}
	// When no result has been delivered, cancellation still wins.
	t2 := &task{done: make(chan result, 1)}
	if _, err := s.await(ctx, t2, false); Classify(err) != ClassCanceled {
		t.Errorf("undelivered task classified %s, want canceled", Classify(err))
	}
}
