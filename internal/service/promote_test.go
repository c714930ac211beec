package service

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/workloads"
)

// countSource prints a constant the optimizer folds, then counts until
// its step budget runs out, so a run's max_steps sets exactly how many
// steps it adds to its unit.
const countSource = ": double dup + ; : main 21 double . 0 begin 1 + dup 0 < until drop ;"

// pipelineService is a service with vmd's default pipeline: quicken
// and optimize on.
func pipelineService(t *testing.T, mutate ...func(*Config)) *Service {
	t.Helper()
	return mustService(t, append(mutate, func(c *Config) { c.Quicken, c.Optimize = true, true })...)
}

// runSteps runs countSource with a budget of n steps, which it uses up.
func runSteps(t *testing.T, s *Service, n int64) *Response {
	t.Helper()
	resp, err := s.Run(context.Background(), Request{Source: countSource, MaxSteps: n})
	if Classify(err) != ClassLimit || resp == nil || resp.Steps != n {
		t.Fatalf("run with %d steps: %v, %+v; want a limit error after %d steps", n, err, resp, n)
	}
	return resp
}

// TestRunMissIsBaseBuild: a /run of a never-seen program compiles
// it once and serves the base build, unoptimized and unquickened, on
// source step accounting, and persists nothing.
func TestRunMissIsBaseBuild(t *testing.T) {
	dir := t.TempDir()
	s := pipelineService(t, func(c *Config) { c.CacheDir = dir })
	var compiles atomic.Int64
	s.onCompile = func(string) { compiles.Add(1) }
	resp, err := s.Run(context.Background(), Request{Source: quickenableSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || resp.Quickened || resp.Optimized || resp.StepsAccounting != "source" || resp.SourceSteps != resp.Steps {
		t.Errorf("miss served %+v, want the base build", resp)
	}
	if compiles.Load() != 1 {
		t.Errorf("%d compiles, want 1", compiles.Load())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Errorf("base build left %d files in the cache directory (%v)", len(entries), err)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.QuickenedPrograms != 0 || st.OptimizedPrograms != 0 || st.Artifact.Persisted != 0 {
		t.Errorf("misses %d quickened %d optimized %d persisted %d, want 1/0/0/0",
			st.CacheMisses, st.QuickenedPrograms, st.OptimizedPrograms, st.Artifact.Persisted)
	}
}

// TestPromotionAtThreshold: after 65,535 executed steps the program
// is still served base; the lookup after the 65,536th promotes it. The
// promotion moves no hit, miss or eviction count.
func TestPromotionAtThreshold(t *testing.T) {
	s := pipelineService(t)
	runSteps(t, s, artifact.PromoteSteps-1)
	if r := runSteps(t, s, 1); !r.CacheHit || r.Optimized {
		t.Errorf("run at %d steps: hit %t optimized %t, want a hit on the base build", artifact.PromoteSteps-1, r.CacheHit, r.Optimized)
	}
	before := s.Stats()
	r := runSteps(t, s, 1000)
	if !r.CacheHit || !r.Optimized || r.StepsAccounting != "optimized" {
		t.Errorf("run at %d steps: hit %t optimized %t accounting %q, want the promoted full build",
			artifact.PromoteSteps, r.CacheHit, r.Optimized, r.StepsAccounting)
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses || after.CacheEvictions != before.CacheEvictions {
		t.Errorf("promotion moved hits/misses/evictions %d/%d/%d -> %d/%d/%d", before.CacheHits, before.CacheMisses,
			before.CacheEvictions, after.CacheHits, after.CacheMisses, after.CacheEvictions)
	}
	if after.Artifact.Promoted != before.Artifact.Promoted+1 || after.OptimizedPrograms != before.OptimizedPrograms+1 {
		t.Errorf("promoted %d -> %d, optimized programs %d -> %d, want one more each", before.Artifact.Promoted,
			after.Artifact.Promoted, before.OptimizedPrograms, after.OptimizedPrograms)
	}
	if r := runSteps(t, s, 1000); !r.Optimized || s.Stats().CacheHits != after.CacheHits+1 {
		t.Error("the run after the promotion is not a hit on the full build")
	}
}

// TestCompileGivesFullBuild: /compile of a never-seen program makes the full
// build, and /compile of a resident base unit promotes it.
func TestCompileGivesFullBuild(t *testing.T) {
	s := pipelineService(t)
	if compile(t, s, optimizableSource) {
		t.Error("compile of a never-seen program reported a hit")
	}
	resp, err := s.Run(context.Background(), Request{Source: optimizableSource})
	if err != nil || !resp.CacheHit || !resp.Optimized {
		t.Fatalf("run after compile: %v %+v, want a hit on the full build", err, resp)
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.Artifact.Promoted != 0 || st.OptimizedPrograms != 1 {
		t.Errorf("misses %d promoted %d optimized %d, want 1/0/1", st.CacheMisses, st.Artifact.Promoted, st.OptimizedPrograms)
	}

	if r := runSteps(t, s, 10); r.Optimized {
		t.Fatal("a never-seen /run was optimized")
	}
	if !compile(t, s, countSource) {
		t.Error("compile of a resident base unit reported a miss")
	}
	if r := runSteps(t, s, 10); !r.Optimized {
		t.Error("the run after compile is not on the full build")
	}
	if st := s.Stats(); st.CacheMisses != 2 || st.Artifact.Promoted != 1 || st.OptimizedPrograms != 2 {
		t.Errorf("misses %d promoted %d optimized %d, want 2/1/2", st.CacheMisses, st.Artifact.Promoted, st.OptimizedPrograms)
	}
}

// TestConcurrentPromotion: many requests that find the unit past
// the threshold together promote it once, and every one of them
// answers correctly.
func TestConcurrentPromotion(t *testing.T) {
	s := pipelineService(t)
	runSteps(t, s, artifact.PromoteSteps)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Run(context.Background(), Request{Source: countSource, MaxSteps: 100})
			if Classify(err) != ClassLimit || resp.Output != "42 " {
				t.Errorf("concurrent run: %v, %+v", err, resp)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Artifact.Promoted != 1 || st.OptimizedPrograms != 1 {
		t.Errorf("promoted %d optimized %d, want 1/1", st.Artifact.Promoted, st.OptimizedPrograms)
	}
	if st.CacheHits+st.Artifact.Promoted != n || st.CacheMisses != 1 {
		t.Errorf("hits %d + promoted %d, misses %d; want %d lookups after 1 miss", st.CacheHits, st.Artifact.Promoted, st.CacheMisses, n)
	}
}

// plainKey names one paper workload on one engine.
type plainKey struct{ workload, engine string }

// plainBaseline holds the plain service's run (no quickening, no
// optimization) of every paper workload on every engine, made once per
// test binary. The quickened, optimized and promoted builds'
// differentials all compare with it, so none of them reruns it.
var plainBaseline struct {
	once    sync.Once
	engines []string
	runs    map[plainKey]*Response
	err     error
}

// plainRuns returns the engines and the plain runs, making them on
// first use.
func plainRuns(t *testing.T) ([]string, map[plainKey]*Response) {
	t.Helper()
	b := &plainBaseline
	b.once.Do(func() {
		s, err := New(Config{Workers: 4, QueueDepth: 256, CacheSize: 32})
		if err != nil {
			b.err = err
			return
		}
		defer s.Close()
		b.engines = s.Engines()
		b.runs = make(map[plainKey]*Response)
		for _, w := range workloads.All() {
			for _, e := range b.engines {
				resp, err := s.Run(context.Background(), Request{Source: w.Source, Engine: e})
				if err != nil {
					b.err = fmt.Errorf("%s/%s plain: %w", w.Name, e, err)
					return
				}
				b.runs[plainKey{w.Name, e}] = resp
			}
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.engines, b.runs
}

// sameRun fails t unless the run b on a build has the plain run a's
// output, final stack, stack depth and error class, in no more steps.
func sameRun(t *testing.T, name, build string, a, b *Response, errB error) {
	t.Helper()
	if b == nil {
		t.Fatalf("%s %s: %v", name, build, errB)
	}
	if errB != nil || a.Output != b.Output || !slices.Equal(a.Stack, b.Stack) || a.StackDepth != b.StackDepth {
		t.Errorf("%s: the %s build changed the result: %q %v vs %v %q %v",
			name, build, a.Output, a.Stack, errB, b.Output, b.Stack)
	}
	if b.Steps > a.Steps {
		t.Errorf("%s: the %s build took %d steps, the plain one %d", name, build, b.Steps, a.Steps)
	}
}

// TestPromotionObservablyEquivalent is the contract across a
// promotion, for every workload on every engine: the run on the full
// build has the output, final stack and error class of the run on the
// base build, in no more steps. Each workload's first run is on its
// base unit, which the /compile then promotes. That run is on a
// different engine for each workload, so every engine runs some base
// unit, and it matches the plain run step for step; the plain runs
// stand for the base build on the other engines.
func TestPromotionObservablyEquivalent(t *testing.T) {
	engines, plain := plainRuns(t)
	ctx := context.Background()
	for i, w := range workloads.All() {
		s := pipelineService(t, func(c *Config) { c.Workers = 1 })
		baseEngine := engines[i%len(engines)]
		base, err := s.Run(ctx, Request{Source: w.Source, Engine: baseEngine})
		compile(t, s, w.Source)
		if base == nil || base.Optimized || base.Quickened || s.Stats().Artifact.Promoted != 1 {
			t.Fatalf("%s/%s: the first run was not on a base unit, or compile did not promote it (%v)", w.Name, baseEngine, err)
		}
		a := plain[plainKey{w.Name, baseEngine}]
		sameRun(t, w.Name+"/"+baseEngine, "base", a, base, err)
		if base.Steps != a.Steps {
			t.Errorf("%s/%s: base steps %d vs plain %d", w.Name, baseEngine, base.Steps, a.Steps)
		}
		for _, e := range engines {
			b, err := s.Run(ctx, Request{Source: w.Source, Engine: e})
			sameRun(t, w.Name+"/"+e, "promoted", plain[plainKey{w.Name, e}], b, err)
		}
		s.Close()
	}
}
