package service

import (
	"context"
	"strings"
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
)

// TestLimitDoesNotPoisonPool is the satellite regression: with a pool
// of exactly one worker (hence one hot pooled machine), a request that
// blows its step budget must not leak any state — output, stack,
// memory, step count — into the next request on the same machine.
func TestLimitDoesNotPoisonPool(t *testing.T) {
	for _, e := range engine.Names() {
		t.Run(e, func(t *testing.T) {
			s := mustService(t, func(c *Config) {
				c.Workers = 1
				c.QueueDepth = 4
			})

			// First request: prints eagerly, then spins until the
			// budget expires, leaving dirty output, stack and memory
			// on the worker's machine.
			dirty := ": main 7 . 1 2 3 0 begin 1 + dup 0 < until ;"
			resp, err := s.Run(context.Background(),
				Request{Source: dirty, Engine: e, MaxSteps: 5_000})
			if Classify(err) != ClassLimit {
				t.Fatalf("dirty run classified %s (err %v), want limit", Classify(err), err)
			}
			if resp == nil {
				t.Fatal("limit error lost the partial response")
			}
			if resp.Steps != 5_000 {
				t.Errorf("dirty run steps %d, want exactly the 5000 budget", resp.Steps)
			}

			// Second request, back-to-back on the same worker: must
			// see a pristine machine.
			resp, err = s.Run(context.Background(),
				Request{Source: ": main depth . 10 20 + . ;", Engine: e})
			if err != nil {
				t.Fatalf("follow-up run failed: %v", err)
			}
			if resp.Output != "0 30 " {
				t.Errorf("follow-up output %q, want %q (stack or output leaked)", resp.Output, "0 30 ")
			}
			if len(resp.Stack) != 0 {
				t.Errorf("follow-up stack %v, want empty", resp.Stack)
			}
		})
	}
}

// TestLimitErrorClassCounted checks the limit class reaches the
// service metrics and the partial response reports the budget.
func TestLimitErrorClassCounted(t *testing.T) {
	s := mustService(t)
	_, err := s.Run(context.Background(),
		Request{Source: spinSource, MaxSteps: 1_000})
	if Classify(err) != ClassLimit {
		t.Fatalf("classified %s, want limit", Classify(err))
	}
	if got := s.Stats().Errors["limit"]; got != 1 {
		t.Errorf("limit counter %d, want 1", got)
	}
}

// TestDeepStackIsARuntimeErrorOnEveryEngine is the regression for the
// statcache halt-flush panic: a program halting with more logical
// stack cells than Machine.Stack holds used to crash the worker
// goroutine (and with it the whole daemon) on the static engine. Every
// engine must instead report a clean runtime error, and the worker
// must survive to serve the next request.
func TestDeepStackIsARuntimeErrorOnEveryEngine(t *testing.T) {
	deep := ": main " + strings.Repeat("1 ", interp.DefaultStackCap+1) + ";"
	for _, e := range engine.Names() {
		t.Run(e, func(t *testing.T) {
			s := mustService(t, func(c *Config) {
				c.Workers = 1
				c.QueueDepth = 4
			})
			_, err := s.Run(context.Background(), Request{Source: deep, Engine: e})
			if Classify(err) != ClassRuntime {
				t.Fatalf("deep stack classified %s (err %v), want runtime", Classify(err), err)
			}
			if !strings.Contains(err.Error(), "stack overflow") {
				t.Errorf("err = %v, want stack overflow", err)
			}
			resp, err := s.Run(context.Background(),
				Request{Source: ": main 1 2 + . ;", Engine: e})
			if err != nil {
				t.Fatalf("follow-up after deep stack failed: %v", err)
			}
			if resp.Output != "3 " {
				t.Errorf("follow-up output %q, want %q", resp.Output, "3 ")
			}
		})
	}
}

// TestOutputBudgetBoundsResponses checks the output cap: a program
// printing without bound must fail with the limit class once it
// crosses MaxOutputBytes, the shipped output must be clamped to the
// cap, and the pooled machine must serve the next request cleanly.
func TestOutputBudgetBoundsResponses(t *testing.T) {
	// Prints increasing integers (practically) forever; only the
	// output budget stops it before the step budget.
	noisy := ": main 0 begin 1 + dup . dup 0 < until drop ;"
	const capBytes = 4096
	for _, e := range engine.Names() {
		t.Run(e, func(t *testing.T) {
			s := mustService(t, func(c *Config) {
				c.Workers = 1
				c.QueueDepth = 4
				c.MaxOutputBytes = capBytes
			})
			resp, err := s.Run(context.Background(), Request{Source: noisy, Engine: e})
			if Classify(err) != ClassLimit {
				t.Fatalf("noisy run classified %s (err %v), want limit", Classify(err), err)
			}
			if !strings.Contains(err.Error(), interp.MsgOutputLimit) {
				t.Errorf("err = %v, want %q", err, interp.MsgOutputLimit)
			}
			if resp == nil {
				t.Fatal("output-limit error lost the partial response")
			}
			if len(resp.Output) > capBytes {
				t.Errorf("shipped %d output bytes, cap is %d", len(resp.Output), capBytes)
			}
			if got := s.Stats().Errors["limit"]; got != 1 {
				t.Errorf("limit counter %d, want 1", got)
			}
			resp, err = s.Run(context.Background(),
				Request{Source: ": main depth . 10 20 + . ;", Engine: e})
			if err != nil {
				t.Fatalf("follow-up after output limit failed: %v", err)
			}
			if resp.Output != "0 30 " {
				t.Errorf("follow-up output %q, want %q (output leaked)", resp.Output, "0 30 ")
			}
		})
	}
}

// TestDefaultBudgetApplies checks a request without an explicit budget
// still cannot run forever: the service default bounds it.
func TestDefaultBudgetApplies(t *testing.T) {
	s := mustService(t, func(c *Config) {
		c.DefaultMaxSteps = 2_000
	})
	resp, err := s.Run(context.Background(), Request{Source: spinSource})
	if Classify(err) != ClassLimit {
		t.Fatalf("classified %s, want limit", Classify(err))
	}
	if resp == nil || resp.Steps != 2_000 {
		t.Errorf("steps = %v, want the 2000 default budget", resp)
	}
}
