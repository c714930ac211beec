package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stackcache/internal/compiled"
	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops pooled machines at random.
var raceEnabled bool

func cacheService(t *testing.T, size int) *Service {
	t.Helper()
	s, err := New(Config{Workers: 1, CacheSize: size})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func srcN(i int) string { return fmt.Sprintf(": main %d . ;", i) }

// compile warms src in the cache and reports whether it was a hit.
func compile(t *testing.T, s *Service, src string) bool {
	t.Helper()
	_, hit, err := s.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestCacheHitMiss(t *testing.T) {
	s := cacheService(t, 8)

	k1, u1, hit, err := s.lookup(srcN(1), false)
	if err != nil || hit {
		t.Fatalf("first lookup: hit %v err %v", hit, err)
	}
	k2, u2, hit, err := s.lookup(srcN(1), false)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit %v err %v", hit, err)
	}
	if u1 != u2 || k1 != k2 {
		t.Error("same source returned distinct units or keys")
	}
	if k1 != CacheKey(srcN(1), forth.Options{}) {
		t.Error("lookup key is not the source's CacheKey")
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("misses %d hits %d, want 1/1", st.CacheMisses, st.CacheHits)
	}
}

// TestCacheKeyIncludesOptions checks that the same source under
// different compile options gets different content addresses.
func TestCacheKeyIncludesOptions(t *testing.T) {
	src := ": main 1 2 + . ;"
	plain := CacheKey(src, forth.Options{})
	super := CacheKey(src, forth.Options{Superinstructions: true})
	if plain == super {
		t.Error("cache key ignores compile options")
	}
	if plain != CacheKey(src, forth.Options{}) {
		t.Error("cache key not deterministic")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	const max = 4
	s := cacheService(t, max)

	for i := 0; i < max; i++ {
		compile(t, s, srcN(i))
	}
	// Touch entry 0 so it is the most recently used, then overflow:
	// entry 1 must be the victim.
	if !compile(t, s, srcN(0)) {
		t.Fatalf("entry 0 not cached before overflow")
	}
	compile(t, s, srcN(max))
	st := s.Stats()
	if st.CacheSize != max {
		t.Errorf("cache size %d after eviction, want %d", st.CacheSize, max)
	}
	if st.CacheEvictions != 1 {
		t.Errorf("evictions %d, want 1", st.CacheEvictions)
	}
	if !compile(t, s, srcN(0)) {
		t.Error("recently-used entry 0 was evicted")
	}
	if compile(t, s, srcN(1)) {
		t.Error("least-recently-used entry 1 survived eviction")
	}
}

// TestCacheSingleFlight proves the dedup contract: N concurrent
// requests for the same novel source observe exactly one compile.
func TestCacheSingleFlight(t *testing.T) {
	s := cacheService(t, 8)

	var compiles atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s.onCompile = func(string) {
		compiles.Add(1)
		close(started) // panics if a second compile ever starts
		<-release
	}

	const n = 16
	var wg sync.WaitGroup
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key, _, err := s.Compile(": main 42 . ;")
			if err != nil {
				t.Error(err)
			}
			keys[i] = key
		}(i)
	}
	<-started // one compile is in flight; everyone else must wait on it
	release <- struct{}{}
	close(release)
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d compiles for one source, want exactly 1", got)
	}
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatal("requests got distinct keys")
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheSize != 1 {
		t.Errorf("misses %d size %d, want 1/1", st.CacheMisses, st.CacheSize)
	}
	if st.CacheHits+st.CacheCoalesced != n-1 {
		t.Errorf("hits %d + coalesced %d, want %d", st.CacheHits, st.CacheCoalesced, n-1)
	}
}

// TestCacheFailedCompileNotCached checks that a failing compile is
// reported but never enters the cache — retrying recompiles, and a
// subsequent fixed source is unaffected.
func TestCacheFailedCompileNotCached(t *testing.T) {
	s := cacheService(t, 8)

	var compiles atomic.Int64
	s.onCompile = func(string) { compiles.Add(1) }

	bad := ": main no-such-word ;"
	for i := 0; i < 2; i++ {
		if _, _, err := s.Compile(bad); Classify(err) != ClassCompile {
			t.Fatalf("attempt %d: bad source gave %v, want a compile error", i, err)
		}
		if st := s.Stats(); st.CacheSize != 0 {
			t.Fatalf("failed compile entered the cache (size %d)", st.CacheSize)
		}
	}
	if got := compiles.Load(); got != 2 {
		t.Errorf("%d compiles, want 2 (failures are never cached)", got)
	}
	if st := s.Stats(); st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Errorf("misses %d hits %d, want 2/0 (a failed build is a miss)", st.CacheMisses, st.CacheHits)
	}
	if compile(t, s, srcN(7)) {
		t.Error("fixed source reported as a hit")
	}
}

// TestCacheIsTheArtifactStore runs A, B, compiles A, runs A, C, A, B
// with a two-program cache: the compile promotes A's base unit, C
// evicts B, the least recently used, and the last A is a hit on the
// full unit whose closures the compiled engine already lowered. The
// service's cache counters are the store's, so they cannot disagree
// about what was cached, and the promotion is none of them.
func TestCacheIsTheArtifactStore(t *testing.T) {
	s := cacheService(t, 2)
	run := func(src string) *Response {
		t.Helper()
		resp, err := s.Run(context.Background(), Request{Source: src, Engine: "compiled"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	a, b, c := srcN(201), srcN(202), srcN(203)
	run(a)
	run(b)
	if !compile(t, s, a) {
		t.Error("compiling the resident A was not a hit")
	}
	run(a)
	run(c)
	before, _ := compiled.Counters()
	if !run(a).CacheHit {
		t.Error("A was not a hit after A, B, compile A, A, C")
	}
	if after, _ := compiled.Counters(); after != before {
		t.Errorf("the last run of A lowered %d programs, want 0", after-before)
	}
	if run(b).CacheHit {
		t.Error("B was a hit after C evicted it")
	}
	st := s.Stats()
	if st.CacheHits != st.Artifact.MemoryHits || st.CacheCoalesced != st.Artifact.Coalesced {
		t.Errorf("service hits %d coalesced %d, store memory hits %d coalesced %d",
			st.CacheHits, st.CacheCoalesced, st.Artifact.MemoryHits, st.Artifact.Coalesced)
	}
	if st.CacheMisses != st.Artifact.Misses || st.CacheEvictions != st.Artifact.Evictions {
		t.Errorf("service misses %d evictions %d, store misses %d evictions %d",
			st.CacheMisses, st.CacheEvictions, st.Artifact.Misses, st.Artifact.Evictions)
	}
	if st.CacheHits != 2 || st.CacheMisses != 4 || st.CacheEvictions != 2 || st.Artifact.Promoted != 1 {
		t.Errorf("hits %d misses %d evictions %d promoted %d, want 2/4/2/1",
			st.CacheHits, st.CacheMisses, st.CacheEvictions, st.Artifact.Promoted)
	}
}

// TestCacheHitRunAllocs pins the allocations of a cache-hit Run, the
// path every repeated request takes.
func TestCacheHitRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled machines under the race detector")
	}
	s := cacheService(t, 8)
	req := Request{Source: ": main + . ;", Args: []vm.Cell{30, 12}}
	if _, err := s.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 7
	n := testing.AllocsPerRun(200, func() {
		if _, err := s.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Errorf("a cache-hit Run allocates %v times, want at most %d", n, maxAllocs)
	}
}

// The static-plan analog of the compile-once contract now lives with
// the static engine; see internal/engine's TestStaticPlanCompiledOnce.
