package artifact

import (
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// countOptimize stands in an optimizer that counts its calls before
// running the real one, and restores vm.OptimizeProof when the test
// ends.
func countOptimize(t *testing.T, before func()) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	optimizeFn = func(pf *vm.Proof) *vm.OptResult {
		calls.Add(1)
		if before != nil {
			before()
		}
		return vm.OptimizeProof(pf)
	}
	t.Cleanup(func() { optimizeFn = vm.OptimizeProof })
	return &calls
}

func mustCompile(t *testing.T, src string) *vm.Program {
	t.Helper()
	p, err := forth.CompileWithOptions(src, forth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustGetBase(t *testing.T, s *Store, hash string, produce func() (*vm.Program, error)) (*Unit, Outcome) {
	t.Helper()
	u, out, err := s.GetOrBuildBase(hash, produce)
	if err != nil {
		t.Fatalf("GetOrBuildBase(%q): %v", hash, err)
	}
	return u, out
}

func dirLen(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestBaseBuildStopsAfterProve: a base miss serves the produced program
// with the facts of its one vm.Prove. It calls no optimizer, plants no
// superinstruction and writes nothing to disk. Asking for the full unit
// then promotes it and persists the full unit, which a fresh store over
// the directory serves as a disk hit.
func TestBaseBuildStopsAfterProve(t *testing.T) {
	calls := countOptimize(t, nil)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Quicken: true, Optimize: true, Fingerprint: "quicken=true,optimize=true"}
	s := NewStore(cfg)
	p := mustCompile(t, quickSrc)
	u, out := mustGetBase(t, s, "k", func() (*vm.Program, error) { return p, nil })
	if out != Miss {
		t.Fatalf("base lookup: %v, want miss", out)
	}
	if u.Prog != p || u.Quickened || u.Optimized {
		t.Errorf("base unit serves a rewritten program (quickened %t, optimized %t)", u.Quickened, u.Optimized)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("base build called the optimizer %d times", n)
	}
	if !reflect.DeepEqual(u.Facts(), vm.Analyze(p)) {
		t.Error("base unit facts differ from Analyze of the produced program")
	}
	if n := dirLen(t, dir); n != 0 {
		t.Errorf("base build left %d files in the cache directory", n)
	}
	if c := s.Counters(); c.Misses != 1 || c.Persisted != 0 || c.Promoted != 0 {
		t.Errorf("counters %+v, want 1 miss, nothing persisted or promoted", c)
	}

	f, out := mustGet(t, s, "k", produceSrc(t, quickSrc))
	if out != Promoted || f.base != nil || !f.Quickened {
		t.Fatalf("GetOrBuild of a resident base unit: %v, base %t, quickened %t; want a promoted full unit",
			out, f.base != nil, f.Quickened)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("promotion called the optimizer %d times, want 1", n)
	}
	if n := dirLen(t, dir); n != 1 {
		t.Errorf("promotion left %d files in the cache directory, want 1", n)
	}
	if c := s.Counters(); c.Misses != 1 || c.MemoryHits != 0 || c.Persisted != 1 || c.Promoted != 1 {
		t.Errorf("counters %+v, want 1 miss, 0 hits, 1 persisted, 1 promoted", c)
	}

	warm := NewStore(cfg)
	w, out, err := warm.GetOrBuildBase("k", func() (*vm.Program, error) {
		t.Error("produce ran on a warm store")
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != DiskHit || w.base != nil || !w.Quickened || !vm.Equal(w.Prog, f.Prog) {
		t.Errorf("warm base lookup: %v, base %t, quickened %t; want the promoted unit as a disk hit",
			out, w.base != nil, w.Quickened)
	}
}

// TestPromotionAtThreshold: a base unit is served as is below
// PromoteSteps executed steps. The first lookup at the threshold
// promotes it in place, counted as a promotion and not as a hit, miss
// or eviction, and later lookups hit the full unit.
func TestPromotionAtThreshold(t *testing.T) {
	s := NewStore(Config{Quicken: true, Optimize: true})
	produce := produceSrc(t, optSrc)
	b, _ := mustGetBase(t, s, "k", produce)
	b.AddSteps(PromoteSteps - 1)
	if u, out := mustGetBase(t, s, "k", produce); u != b || out != MemoryHit {
		t.Fatalf("lookup at %d steps: %v, want a memory hit on the base unit", PromoteSteps-1, out)
	}
	b.AddSteps(1)
	before := s.Counters()
	f, out := mustGetBase(t, s, "k", produce)
	if out != Promoted || f == b || f.base != nil || !f.Optimized {
		t.Fatalf("lookup at %d steps: %v, optimized %t; want a promoted full unit", PromoteSteps, out, f.Optimized)
	}
	after := s.Counters()
	if after.MemoryHits != before.MemoryHits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Errorf("promotion moved hits, misses or evictions: %+v -> %+v", before, after)
	}
	if after.Promoted != before.Promoted+1 {
		t.Errorf("promoted %d -> %d, want one more", before.Promoted, after.Promoted)
	}
	if u, out := mustGetBase(t, s, "k", produce); u != f || out != MemoryHit {
		t.Errorf("lookup after promotion: %v, want a memory hit on the full unit", out)
	}
	if Of(f.Prog) != f || Of(b.Prog) == b {
		t.Error("promotion did not move the program identity from the base unit to the full unit")
	}
}

// TestPromotionRunsOnce holds one promotion open while many goroutines
// look the unit up: base lookups keep the base unit, full lookups wait
// for the promotion, and the optimizer runs once.
func TestPromotionRunsOnce(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	calls := countOptimize(t, func() {
		once.Do(func() { close(entered) })
		<-release
	})
	s := NewStore(Config{Quicken: true, Optimize: true})
	produce := produceSrc(t, optSrc)
	b, _ := mustGetBase(t, s, "k", produce)
	b.AddSteps(PromoteSteps)

	const n = 16
	var promoted atomic.Int64
	var wg sync.WaitGroup
	lookup := func(full bool) {
		defer wg.Done()
		get := s.GetOrBuildBase
		if full {
			get = s.GetOrBuild
		}
		u, out, err := get("k", produce)
		if err != nil {
			t.Error(err)
			return
		}
		if out == Promoted {
			promoted.Add(1)
		}
		if full && u.base != nil {
			t.Error("GetOrBuild returned a base unit")
		}
	}
	wg.Add(1)
	go lookup(false)
	<-entered
	for i := 0; i < n; i++ {
		wg.Add(2)
		go lookup(false)
		go lookup(true)
	}
	// Base lookups are not held by the promotion in progress.
	if u, out := mustGetBase(t, s, "k", produce); u != b || out != MemoryHit {
		t.Errorf("base lookup during the promotion: %v, want a memory hit on the base unit", out)
	}
	close(release)
	wg.Wait()
	if promoted.Load() != 1 || calls.Load() != 1 || s.Counters().Promoted != 1 {
		t.Errorf("%d promoted lookups, %d optimizer calls, %d counted; want one each",
			promoted.Load(), calls.Load(), s.Counters().Promoted)
	}
}

// TestPromotionAfterEvictionNotPutBack evicts a base unit while its
// promotion runs: the promoting lookup gets the full unit, but the store
// does not take it back, and a later lookup builds the program again.
func TestPromotionAfterEvictionNotPutBack(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	countOptimize(t, func() {
		close(entered)
		<-release
	})
	s := NewStore(Config{MaxUnits: 1, Optimize: true})
	b, _ := mustGetBase(t, s, "a", produceSrc(t, optSrc))
	b.AddSteps(PromoteSteps)

	done := make(chan *Unit)
	go func() {
		u, _, err := s.GetOrBuildBase("a", produceSrc(t, optSrc))
		if err != nil {
			t.Error(err)
		}
		done <- u
	}()
	<-entered
	mustGetBase(t, s, "b", produceSrc(t, plainSrc))
	close(release)
	if f := <-done; f == nil || !f.Optimized {
		t.Fatal("the promoting lookup did not get the full unit")
	}
	if c := s.Counters(); c.Promoted != 1 || c.Evictions != 1 || s.Len() != 1 {
		t.Errorf("counters %+v with %d resident, want 1 promoted, 1 eviction, 1 resident", c, s.Len())
	}
	if u, out := mustGetBase(t, s, "a", produceSrc(t, optSrc)); out != Miss || u.base == nil {
		t.Errorf("lookup of the evicted key: %v, want a base build", out)
	}
}
