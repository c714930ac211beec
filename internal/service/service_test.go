package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// mustService builds a service with test-friendly defaults; callers
// override via the mutators.
func mustService(t *testing.T, mutate ...func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Workers:    4,
		QueueDepth: 256,
		CacheSize:  32,
	}
	for _, f := range mutate {
		f(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

const addSource = ": main 1 2 + . ;"

// spinSource runs forever; only a step budget stops it.
const spinSource = ": main 0 begin 1 + dup 0 < until drop ;"

func TestRunBasicAllEngines(t *testing.T) {
	s := mustService(t)
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(), Request{Source: addSource, Engine: e})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if resp.Output != "3 " {
			t.Errorf("%s: output %q, want %q", e, resp.Output, "3 ")
		}
		if len(resp.Stack) != 0 {
			t.Errorf("%s: stack %v, want empty", e, resp.Stack)
		}
		if resp.Steps == 0 {
			t.Errorf("%s: zero steps", e)
		}
		if resp.Key == "" {
			t.Errorf("%s: empty cache key", e)
		}
	}
	snap := s.Stats()
	if snap.CacheMisses != 1 {
		t.Errorf("cache misses %d, want 1 (one source, compiled once)", snap.CacheMisses)
	}
	if snap.CacheHits != int64(len(s.Engines())-1) {
		t.Errorf("cache hits %d, want %d", snap.CacheHits, len(s.Engines())-1)
	}
}

// TestEnginesAgreeViaService cross-checks the service path against a
// direct interp run on a real workload: pooled machines and rebinding
// must not change observable semantics for any engine.
func TestEnginesAgreeViaService(t *testing.T) {
	w, ok := workloads.ByName("fib")
	if !ok {
		t.Fatal("fib workload missing")
	}
	p, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p, interp.EngineSwitch)
	if err != nil {
		t.Fatal(err)
	}

	s := mustService(t)
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(), Request{Source: w.Source, Engine: e})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if resp.Output != ref.Out.String() {
			t.Errorf("%s: output %q, want %q", e, resp.Output, ref.Out.String())
		}
		if len(resp.Stack) != ref.SP {
			t.Errorf("%s: stack depth %d, want %d", e, len(resp.Stack), ref.SP)
		}
	}
}

// TestConcurrentMixedEngines is the acceptance test: >= 64 concurrent
// requests mixing all engines against one shared cache, with cache and
// error-class counters observable afterwards. Run under -race this
// exercises every engine concurrently over shared programs.
func TestConcurrentMixedEngines(t *testing.T) {
	s := mustService(t)

	sources := []string{
		addSource,
		": main 10 0 do i . loop ;",
		": quad dup * dup * ; : main 7 quad . ;",
		spinSource, // exhausts its budget: the limit class must show up
	}
	// wave sends perPair requests for every source × engine pair at
	// once and returns how many it sent.
	wave := func(perPair int) int {
		var wg sync.WaitGroup
		errs := make(chan error, perPair*len(sources)*len(s.Engines()))
		for i := 0; i < perPair; i++ {
			for _, src := range sources {
				for _, e := range s.Engines() {
					wg.Add(1)
					go func(src string, e string) {
						defer wg.Done()
						req := Request{Source: src, Engine: e}
						if src == spinSource {
							req.MaxSteps = 10_000
						}
						resp, err := s.Run(context.Background(), req)
						if src == spinSource {
							if Classify(err) != ClassLimit {
								errs <- fmt.Errorf("%s: spin classified %s, want limit", e, Classify(err))
							}
							return
						}
						if err != nil {
							errs <- fmt.Errorf("%s: %v", e, err)
							return
						}
						if resp.Output == "" {
							errs <- fmt.Errorf("%s: empty output for %q", e, src)
						}
					}(src, e)
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		return perPair * len(sources) * len(s.Engines())
	}

	const perPair = 3 // 4 sources × 11 registry engines × 3 = 132 concurrent requests
	total := wave(perPair)
	if total < 64 {
		t.Fatalf("test misconfigured: only %d concurrent requests", total)
	}

	snap := s.Stats()
	if snap.Requests != int64(total) {
		t.Errorf("requests %d, want %d", snap.Requests, total)
	}
	if snap.Completed != int64(total) {
		t.Errorf("completed %d, want %d", snap.Completed, total)
	}
	if snap.CacheMisses != int64(len(sources)) {
		t.Errorf("cache misses %d, want %d (one compile per distinct source)",
			snap.CacheMisses, len(sources))
	}
	// How many of the other lookups joined an in-flight compile rather
	// than hitting depends on scheduling, and so does which of them
	// promoted the spin program once its runs passed
	// artifact.PromoteSteps; together they are exact.
	if got := snap.CacheHits + snap.CacheCoalesced + snap.Artifact.Promoted; got != int64(total-len(sources)) {
		t.Errorf("hits+coalesced+promoted %d, want %d", got, total-len(sources))
	}
	wantOK := int64(perPair * (len(sources) - 1) * len(s.Engines()))
	if snap.Errors["ok"] != wantOK {
		t.Errorf("ok count %d, want %d", snap.Errors["ok"], wantOK)
	}
	wantLimit := int64(perPair * len(s.Engines()))
	if snap.Errors["limit"] != wantLimit {
		t.Errorf("limit count %d, want %d", snap.Errors["limit"], wantLimit)
	}
	for _, e := range s.Engines() {
		es, ok := snap.Engines[e]
		if !ok || es.Requests == 0 {
			t.Errorf("engine %s: no executions recorded", e)
			continue
		}
		if es.Steps == 0 {
			t.Errorf("engine %s: no steps recorded", e)
		}
	}

	// Once the first wave has finished, every program is cached: a
	// second concurrent wave must be all hits, however it is scheduled,
	// but for the lookup that promotes the spin program if no lookup
	// of the first wave did. Its 33 runs of 10,000 steps passed
	// artifact.PromoteSteps, so by now it has been promoted once.
	second := wave(1)
	after := s.Stats()
	promoted := after.Artifact.Promoted - snap.Artifact.Promoted
	if got := after.CacheHits - snap.CacheHits; got+promoted != int64(second) {
		t.Errorf("second wave: %d hits and %d promotions, want %d lookups", got, promoted, second)
	}
	if after.Artifact.Promoted != 1 {
		t.Errorf("%d promotions, want 1 (the spin program)", after.Artifact.Promoted)
	}
	if after.CacheMisses != snap.CacheMisses || after.CacheCoalesced != snap.CacheCoalesced {
		t.Errorf("second wave: misses %d -> %d, coalesced %d -> %d, want both unchanged",
			snap.CacheMisses, after.CacheMisses, snap.CacheCoalesced, after.CacheCoalesced)
	}
}

// TestStatsConsistentUnderLoad reads Stats while requests, batches
// among them, are in flight: every snapshot is taken under the one
// metrics lock, so its counters agree with each other exactly, not
// just once traffic stops.
func TestStatsConsistentUnderLoad(t *testing.T) {
	s := mustService(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := Request{Source: addSource, Engine: s.Engines()[(g+i)%len(s.Engines())]}
				if i%3 == 0 {
					req.Source = ": main / . ;"
					req.Inputs = []Input{{Args: []vm.Cell{6, 2}}, {Args: []vm.Cell{1, 0}}}
				}
				s.Run(context.Background(), req)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		snap := s.Stats()
		sum := func(m map[string]int64) (n int64) {
			for _, v := range m {
				n += v
			}
			return n
		}
		batches, execs := int64(0), int64(0)
		for _, n := range snap.BatchSizes {
			batches += n
		}
		for _, e := range snap.Engines {
			execs += e.Requests
		}
		if got := sum(snap.Errors); got != snap.Completed {
			t.Fatalf("read %d: errors sum to %d, completed %d", reads, got, snap.Completed)
		}
		if got := sum(snap.BatchInputResults); got != snap.BatchInputs {
			t.Fatalf("read %d: batch input results sum to %d, batch inputs %d", reads, got, snap.BatchInputs)
		}
		// An execution counts one analysis verdict per input it ran.
		if got := snap.AnalysisProved + snap.AnalysisUnproven; got != execs-batches+snap.BatchInputs {
			t.Fatalf("read %d: %d analysis verdicts, want %d", reads, got, execs-batches+snap.BatchInputs)
		}
		select {
		case <-done:
			if got := s.Stats().Completed; got != 200 {
				t.Errorf("completed %d, want 200", got)
			}
			return
		default:
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := mustService(t)
	cases := []struct {
		name string
		req  Request
		want ErrorClass
	}{
		{"empty source", Request{Engine: "switch"}, ClassBadRequest},
		{"bad engine", Request{Source: addSource, Engine: "jit"}, ClassBadRequest},
		{"negative steps", Request{Source: addSource, MaxSteps: -1}, ClassBadRequest},
		{"huge steps", Request{Source: addSource, MaxSteps: 1 << 40}, ClassBadRequest},
		{"compile error", Request{Source: ": main undefined-word ;", Engine: "token"}, ClassCompile},
		{"no main", Request{Source: ": other 1 ;"}, ClassCompile},
		{"runtime error", Request{Source: ": main 1 0 / . ;"}, ClassRuntime},
	}
	for _, tc := range cases {
		_, err := s.Run(context.Background(), tc.req)
		if Classify(err) != tc.want {
			t.Errorf("%s: classified %s, want %s", tc.name, Classify(err), tc.want)
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %T is not *service.Error", tc.name, err)
		}
	}
	snap := s.Stats()
	if snap.Errors["bad_request"] != 4 || snap.Errors["compile"] != 2 || snap.Errors["runtime"] != 1 {
		t.Errorf("error counters %v, want 4 bad_request, 2 compile, 1 runtime", snap.Errors)
	}
}

func TestQueueFullShedding(t *testing.T) {
	s := mustService(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	const n = 8
	classes := make(chan ErrorClass, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Run(context.Background(),
				Request{Source: spinSource, MaxSteps: 50_000_000})
			classes <- Classify(err)
		}()
	}
	wg.Wait()
	close(classes)
	counts := map[ErrorClass]int{}
	for c := range classes {
		counts[c]++
	}
	// With 1 worker and queue depth 1, the 8 near-simultaneous
	// submissions cannot all be accepted: each accepted run burns 50M
	// steps, far longer than the submission burst.
	if counts[ClassQueueFull] == 0 {
		t.Errorf("no queue_full rejections across %d floods: %v", n, counts)
	}
	if counts[ClassLimit] == 0 {
		t.Errorf("no executions reached the step limit: %v", counts)
	}
	if s.Stats().Errors["queue_full"] != int64(counts[ClassQueueFull]) {
		t.Errorf("queue_full counter %d, want %d",
			s.Stats().Errors["queue_full"], counts[ClassQueueFull])
	}
}

func TestContextCanceled(t *testing.T) {
	s := mustService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Run(ctx, Request{Source: addSource})
	if Classify(err) != ClassCanceled {
		t.Errorf("classified %s, want canceled", Classify(err))
	}
}

func TestClosedService(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	_, err = s.Run(context.Background(), Request{Source: addSource})
	if Classify(err) != ClassShutdown {
		t.Errorf("classified %s, want shutdown", Classify(err))
	}
}

func TestCompileWarmup(t *testing.T) {
	s := mustService(t)
	key1, hit, err := s.Compile(addSource)
	if err != nil || hit {
		t.Fatalf("first compile: key %q hit %v err %v", key1, hit, err)
	}
	key2, hit, err := s.Compile(addSource)
	if err != nil || !hit || key2 != key1 {
		t.Fatalf("second compile: key %q hit %v err %v", key2, hit, err)
	}
	resp, err := s.Run(context.Background(), Request{Source: addSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || resp.Key != key1 {
		t.Errorf("run after warmup: hit %v key %q, want hit with key %q",
			resp.CacheHit, resp.Key, key1)
	}
	if _, _, err := s.Compile(": main oops ;"); Classify(err) != ClassCompile {
		t.Errorf("bad compile classified %s, want compile", Classify(err))
	}
}

// TestStackReturned checks that programs leaving values on the stack
// get them reported bottom-first.
func TestStackReturned(t *testing.T) {
	s := mustService(t)
	resp, err := s.Run(context.Background(), Request{Source: ": main 1 2 3 ;", Engine: "dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	want := []vm.Cell{1, 2, 3}
	if len(resp.Stack) != len(want) {
		t.Fatalf("stack %v, want %v", resp.Stack, want)
	}
	for i := range want {
		if resp.Stack[i] != want[i] {
			t.Fatalf("stack %v, want %v", resp.Stack, want)
		}
	}
}

// TestEngineSetFromRegistry checks the service's engine set is exactly
// the registry's, in registry order — adding an engine to the registry
// makes it servable with no service edits.
func TestEngineSetFromRegistry(t *testing.T) {
	s := mustService(t)
	got := s.Engines()
	want := engine.Names()
	if len(got) != len(want) {
		t.Fatalf("service engines %v, registry %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service engines %v, registry %v", got, want)
		}
	}
	if got[0] != DefaultEngine {
		t.Errorf("first engine %q, want the %q default", got[0], DefaultEngine)
	}
}
