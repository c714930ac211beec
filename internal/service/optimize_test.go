package service

import (
	"context"
	"strings"
	"testing"

	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// optimizableSource folds completely: the optimizer inlines double,
// folds the arithmetic, and the program shrinks to lit/./halt.
const optimizableSource = ": double dup + ; : main 21 double . ;"

func TestOptimizePipeline(t *testing.T) {
	s := mustService(t, func(c *Config) { c.Optimize = true })
	compile(t, s, optimizableSource)

	resp, err := s.Run(context.Background(), Request{Source: optimizableSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Optimized {
		t.Error("response not marked optimized")
	}
	if resp.Output != "42 " {
		t.Errorf("output %q, want %q", resp.Output, "42 ")
	}
	if resp.StepsAccounting != "optimized" {
		t.Errorf("steps accounting %q, want %q", resp.StepsAccounting, "optimized")
	}
	if resp.SourceSteps != 0 {
		t.Errorf("source steps %d for an optimized run, want 0 (unknown)", resp.SourceSteps)
	}

	// A cache hit serves the same (optimized) entry.
	resp, err = s.Run(context.Background(), Request{Source: optimizableSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || !resp.Optimized {
		t.Errorf("second run: cacheHit %v optimized %v, want true/true", resp.CacheHit, resp.Optimized)
	}

	snap := s.Stats()
	if snap.OptimizedPrograms != 1 {
		t.Errorf("optimized programs %d, want 1", snap.OptimizedPrograms)
	}
	total := int64(0)
	for _, n := range snap.OptimizedOps {
		total += n
	}
	if total == 0 {
		t.Error("optimized ops all zero for an optimized program")
	}
	if len(snap.OptimizedOps) != int(vm.NumOptPasses) {
		t.Errorf("snapshot carries %d pass labels, want %d", len(snap.OptimizedOps), vm.NumOptPasses)
	}
}

func TestOptimizeDisabledByDefault(t *testing.T) {
	s := mustService(t)
	resp, err := s.Run(context.Background(), Request{Source: optimizableSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Optimized {
		t.Error("optimizer ran with Config.Optimize unset")
	}
	if resp.StepsAccounting != "source" {
		t.Errorf("steps accounting %q, want %q", resp.StepsAccounting, "source")
	}
	if resp.SourceSteps != resp.Steps {
		t.Errorf("source steps %d != steps %d for an unoptimized run", resp.SourceSteps, resp.Steps)
	}
	if snap := s.Stats(); snap.OptimizedPrograms != 0 {
		t.Errorf("optimized programs %d with optimization off, want 0", snap.OptimizedPrograms)
	}
}

// TestOptimizePrometheusPassLabels pins the metric contract the lint
// suite enforces structurally: vmd_optimized_ops_total carries one
// series per optimizer pass, every pass label always present.
func TestOptimizePrometheusPassLabels(t *testing.T) {
	s := mustService(t, func(c *Config) { c.Optimize = true })
	compile(t, s, optimizableSource)
	if _, err := s.Run(context.Background(), Request{Source: optimizableSource}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, s.Stats()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "vmd_optimized_programs_total 1") {
		t.Error("Prometheus output missing vmd_optimized_programs_total 1")
	}
	for pass := 0; pass < int(vm.NumOptPasses); pass++ {
		want := `vmd_optimized_ops_total{pass="` + vm.OptPass(pass).String() + `"}`
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing series %s", want)
		}
	}
	if !strings.Contains(out, `vmd_artifact_total{stage="optimize",outcome="refused"} 0`) {
		t.Error("Prometheus output missing the optimize-refused artifact series")
	}
}

func TestOptimizeBatchResponse(t *testing.T) {
	s := mustService(t, func(c *Config) { c.Optimize = true })
	compile(t, s, optimizableSource)
	resp, err := s.Run(context.Background(), Request{
		Source: optimizableSource,
		Inputs: []Input{{}, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Optimized {
		t.Error("batch response not marked optimized")
	}
	if resp.StepsAccounting != "optimized" || resp.SourceSteps != 0 {
		t.Errorf("batch accounting %q/%d, want optimized/0", resp.StepsAccounting, resp.SourceSteps)
	}
	for i, r := range resp.Results {
		if r.Err != nil {
			t.Errorf("input %d: %v", i, r.Err)
		}
		if r.Output != "42 " {
			t.Errorf("input %d: output %q, want %q", i, r.Output, "42 ")
		}
	}
}

// TestOptimizeObservablyEquivalent is the acceptance gate at the
// service level: for every engine and every workload, an optimized
// service and a plain one produce bit-identical output and final
// stacks, and the optimized run never takes more steps. The recursive
// workloads (gray's parser, naive fib) are not depth-provable, hence
// legitimately served unoptimized — pinned here so a silent relaxation
// of the Proved gate shows up as a test failure.
func TestOptimizeObservablyEquivalent(t *testing.T) {
	engines, plain := plainRuns(t)
	opt := mustService(t, func(c *Config) { c.Optimize = true })

	// Recursion makes stack depth unbounded, so vm.Analyze cannot prove
	// these and the optimizer must decline them.
	recursive := map[string]bool{"gray": true, "fib": true}

	for _, w := range workloads.All() {
		compile(t, opt, w.Source)
		for _, e := range engines {
			b, err := opt.Run(context.Background(), Request{Source: w.Source, Engine: e})
			sameRun(t, w.Name+"/"+e, "optimized", plain[plainKey{w.Name, e}], b, err)
			if recursive[w.Name] && b.Optimized {
				t.Errorf("%s/%s: recursive workload marked optimized; the Proved gate must refuse it", w.Name, e)
			}
			if !recursive[w.Name] && !b.Optimized {
				t.Errorf("%s/%s: depth-provable workload not optimized", w.Name, e)
			}
		}
	}
}

// TestOptimizeBudgetSweep pins the step-accounting contract under step
// budgets, on the base build a never-seen program gets and on the full
// build: the validator guarantees the rewrite takes no more steps than
// the source program, so any budget sufficient for the source program
// must be sufficient for the optimized one, and on success the outputs
// are identical. Each budget runs on a fresh service, so the base build
// is not promoted partway through the sweep.
func TestOptimizeBudgetSweep(t *testing.T) {
	plain := mustService(t)

	var w workloads.Workload
	for _, cand := range workloads.All() {
		if cand.Name == "prims2x" { // biggest optimizer win
			w = cand
		}
	}
	full, err := plain.Run(context.Background(), Request{Source: w.Source})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int64{1, full.Steps / 64, full.Steps / 2, full.Steps - 1, full.Steps, full.Steps + 1}
	for _, build := range []string{"base", "full"} {
		for _, budget := range budgets {
			if budget < 1 {
				continue
			}
			opt := mustService(t, func(c *Config) { c.Optimize = true })
			if build == "full" {
				compile(t, opt, w.Source)
			}
			req := Request{Source: w.Source, MaxSteps: budget}
			a, errA := plain.Run(context.Background(), req)
			b, errB := opt.Run(context.Background(), req)
			if errA == nil {
				if errB != nil {
					t.Fatalf("%s build, budget %d: source fits but optimized fails: %v", build, budget, errB)
				}
				if a.Output != b.Output {
					t.Errorf("%s build, budget %d: outputs diverge", build, budget)
				}
				if b.Steps > a.Steps {
					t.Errorf("%s build, budget %d: optimized steps %d > source steps %d", build, budget, b.Steps, a.Steps)
				}
			} else if Classify(errA) != ClassLimit {
				t.Fatalf("%s build, budget %d: unexpected source error class %v", build, budget, Classify(errA))
			}
			// When the source run hits the limit the optimized run may
			// legitimately finish (it needs fewer steps) or hit the limit
			// too; anything else is a contract violation.
			if errA != nil && errB != nil && Classify(errB) != ClassLimit {
				t.Errorf("%s build, budget %d: optimized error class %v, want limit", build, budget, Classify(errB))
			}
			if b != nil {
				want := "source"
				if build == "full" {
					want = "optimized"
				}
				if b.Optimized != (build == "full") || b.StepsAccounting != want {
					t.Errorf("%s build, budget %d: optimized %t accounting %q, want accounting %q",
						build, budget, b.Optimized, b.StepsAccounting, want)
				}
			}
		}
	}
}

// TestOptimizeRefusalFingerprint: a service with optimization on and
// one with it off sharing a cache directory must not serve each
// other's entries.
func TestOptimizeCacheDirSeparation(t *testing.T) {
	dir := t.TempDir()
	on := mustService(t, func(c *Config) { c.Optimize = true; c.CacheDir = dir })
	compile(t, on, optimizableSource) // only the full build is persisted
	if st := on.Stats(); st.Artifact.Persisted != 1 {
		t.Fatalf("optimize=true service persisted %d units, want 1", st.Artifact.Persisted)
	}
	on.Close()

	off := mustService(t, func(c *Config) { c.CacheDir = dir })
	resp, err := off.Run(context.Background(), Request{Source: optimizableSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Optimized {
		t.Error("optimize=false service served an optimized unit from a shared cache dir")
	}
	if snap := off.Stats(); snap.Artifact.DiskHits != 0 {
		t.Errorf("optimize=false service disk-hit an optimize=true entry (%d hits)", snap.Artifact.DiskHits)
	}
}
