package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

const (
	plainSrc = ": main 1 2 + . ;"
	// quickSrc has two lit-@ sites vm.Quicken rewrites (the same
	// program the vmd smoke test uses to pin quickened metrics).
	quickSrc = "variable x : main x @ x @ + . ;"
)

func produceSrc(t *testing.T, src string) func() (*vm.Program, error) {
	t.Helper()
	return func() (*vm.Program, error) {
		return forth.CompileWithOptions(src, forth.Options{})
	}
}

func mustGet(t *testing.T, s *Store, hash string, produce func() (*vm.Program, error)) (*Unit, Outcome) {
	t.Helper()
	u, out, err := s.GetOrBuild(hash, produce)
	if err != nil {
		t.Fatalf("GetOrBuild(%q): %v", hash, err)
	}
	return u, out
}

func TestStoreMissThenMemoryHit(t *testing.T) {
	s := NewStore(Config{})
	var calls atomic.Int64
	produce := func() (*vm.Program, error) {
		calls.Add(1)
		return forth.CompileWithOptions(plainSrc, forth.Options{})
	}
	u1, out := mustGet(t, s, "k1", produce)
	if out != Miss {
		t.Fatalf("first lookup: got %v, want miss", out)
	}
	u2, out := mustGet(t, s, "k1", produce)
	if out != MemoryHit {
		t.Fatalf("second lookup: got %v, want memory_hit", out)
	}
	if u1 != u2 {
		t.Error("memory hit returned a different unit")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("produce ran %d times, want 1", n)
	}
	if c := s.Counters(); c.Misses != 1 || c.MemoryHits != 1 {
		t.Errorf("counters = %+v, want 1 miss / 1 memory hit", c)
	}
	if u1.Facts() == nil || u1.Facts() != u2.Facts() {
		t.Error("facts not computed once on the shared unit")
	}
}

func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(Config{})
	var calls atomic.Int64
	gate := make(chan struct{})
	produce := func() (*vm.Program, error) {
		calls.Add(1)
		<-gate
		return forth.CompileWithOptions(plainSrc, forth.Options{})
	}
	const n = 16
	units := make([]*Unit, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, _, err := s.GetOrBuild("k", produce)
			if err != nil {
				t.Error(err)
			}
			units[i] = u
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("produce ran %d times under %d concurrent gets, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if units[i] != units[0] {
			t.Fatalf("caller %d got a different unit", i)
		}
	}
}

func TestStoreFailedBuildNotCached(t *testing.T) {
	s := NewStore(Config{})
	boom := errors.New("boom")
	var calls atomic.Int64
	produce := func() (*vm.Program, error) {
		calls.Add(1)
		return nil, boom
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.GetOrBuild("k", produce); !errors.Is(err, boom) {
			t.Fatalf("get %d: err = %v, want boom", i, err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("produce ran %d times, want 2 (failures are never cached)", got)
	}
	if s.Len() != 0 {
		t.Errorf("store holds %d units after failed builds, want 0", s.Len())
	}
}

func TestStoreVerifyGate(t *testing.T) {
	s := NewStore(Config{})
	// A program that fails vm.Verify must never enter the store, even
	// though produce returned it without error.
	_, _, err := s.GetOrBuild("k", func() (*vm.Program, error) {
		return &vm.Program{Code: []vm.Instr{{Op: vm.OpHalt}}, Entry: 99}, nil
	})
	if err == nil {
		t.Fatal("unverifiable program entered the store")
	}
	if s.Len() != 0 {
		t.Errorf("store holds %d units, want 0", s.Len())
	}
}

func TestStoreQuickens(t *testing.T) {
	s := NewStore(Config{Quicken: true, Fingerprint: "quicken=true"})
	u, _ := mustGet(t, s, "k", produceSrc(t, quickSrc))
	if !u.Quickened || u.QuickenedOps != 2 {
		t.Fatalf("quickened=%v ops=%d, want true/2", u.Quickened, u.QuickenedOps)
	}
	if err := vm.Verify(u.Prog); err != nil {
		t.Fatalf("quickened program fails verify: %v", err)
	}
	plain := NewStore(Config{})
	pu, _ := mustGet(t, plain, "k", produceSrc(t, quickSrc))
	if pu.Quickened {
		t.Error("store without Quicken produced a quickened unit")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(Config{MaxUnits: 2})
	srcs := []string{": main 1 . ;", ": main 2 . ;", ": main 3 . ;"}
	for i, src := range srcs {
		mustGet(t, s, string(rune('a'+i)), produceSrc(t, src))
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
	// The evicted key rebuilds (a miss, not a hit).
	var calls atomic.Int64
	_, out, err := s.GetOrBuild("a", func() (*vm.Program, error) {
		calls.Add(1)
		return forth.CompileWithOptions(srcs[0], forth.Options{})
	})
	if err != nil || out != Miss || calls.Load() != 1 {
		t.Errorf("evicted key: out=%v err=%v calls=%d, want miss/nil/1", out, err, calls.Load())
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cold := NewStore(Config{Dir: dir, Quicken: true, Fingerprint: "quicken=true"})
	u1, out := mustGet(t, cold, "k", produceSrc(t, quickSrc))
	if out != Miss {
		t.Fatalf("cold store: outcome %v, want miss", out)
	}
	if c := cold.Counters(); c.Persisted != 1 {
		t.Fatalf("persisted = %d, want 1 (errors: %d)", c.Persisted, c.PersistErrors)
	}

	// A fresh store on the same dir must warm-start: produce must not
	// run, and the loaded unit must match the cold one bit for bit.
	warm := NewStore(Config{Dir: dir, Quicken: true, Fingerprint: "quicken=true"})
	u2, out, err := warm.GetOrBuild("k", func() (*vm.Program, error) {
		t.Fatal("produce ran on a warm store")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != DiskHit {
		t.Fatalf("warm store: outcome %v, want disk_hit", out)
	}
	if !vm.Equal(u1.Prog, u2.Prog) {
		t.Error("disk round trip changed the program")
	}
	if u2.Quickened != u1.Quickened || u2.QuickenedOps != u1.QuickenedOps {
		t.Errorf("quickened metadata drifted: %v/%d vs %v/%d",
			u2.Quickened, u2.QuickenedOps, u1.Quickened, u1.QuickenedOps)
	}
	f1, f2 := u1.Facts(), u2.Facts()
	if f1.Proved != f2.Proved || f1.MaxDepth != f2.MaxDepth || f1.MaxRDepth != f2.MaxRDepth ||
		f1.DepthCap != f2.DepthCap || f1.RDepthCap != f2.RDepthCap ||
		len(f1.PCs) != len(f2.PCs) || len(f1.Violations) != len(f2.Violations) {
		t.Fatalf("facts drifted across disk:\n%+v\nvs\n%+v", f1, f2)
	}
	for i := range f1.PCs {
		if f1.PCs[i] != f2.PCs[i] {
			t.Fatalf("pc %d fact drifted: %+v vs %+v", i, f1.PCs[i], f2.PCs[i])
		}
	}
	if c := warm.Counters(); c.DiskHits != 1 || c.Misses != 0 {
		t.Errorf("warm counters = %+v, want 1 disk hit / 0 misses", c)
	}
	// Second lookup on the warm store is a plain memory hit.
	if _, out := mustGet(t, warm, "k", produceSrc(t, quickSrc)); out != MemoryHit {
		t.Errorf("warm second lookup: %v, want memory_hit", out)
	}
}

func TestStoreDiskCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(Config{Dir: dir, Fingerprint: "fp"})
	mustGet(t, s, "k", produceSrc(t, plainSrc))

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one unit file, got %d (err %v)", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())

	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"flipped checksum byte", func(b []byte) []byte { b[10] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				// Recreate the entry (a prior subtest deleted it).
				fresh := NewStore(Config{Dir: dir, Fingerprint: "fp"})
				mustGet(t, fresh, "k", produceSrc(t, plainSrc))
				raw, err = os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			victim := NewStore(Config{Dir: dir, Fingerprint: "fp"})
			var calls atomic.Int64
			u, out, err := victim.GetOrBuild("k", func() (*vm.Program, error) {
				calls.Add(1)
				return forth.CompileWithOptions(plainSrc, forth.Options{})
			})
			if err != nil || u == nil {
				t.Fatalf("corrupt entry not recomputed: %v", err)
			}
			if out != Miss || calls.Load() != 1 {
				t.Errorf("outcome=%v calls=%d, want miss/1 (corrupt must rebuild from source)", out, calls.Load())
			}
			if c := victim.Counters(); c.CorruptRecomputed != 1 {
				t.Errorf("corrupt counter = %d, want 1", c.CorruptRecomputed)
			}
		})
	}
}

func TestStoreFingerprintIsolation(t *testing.T) {
	dir := t.TempDir()
	q := NewStore(Config{Dir: dir, Quicken: true, Fingerprint: "quicken=true"})
	mustGet(t, q, "k", produceSrc(t, quickSrc))

	// Same hash, different fingerprint: a different full key, so the
	// plain store must not see the quickened unit — on disk or in
	// memory.
	plain := NewStore(Config{Dir: dir, Quicken: false, Fingerprint: "quicken=false"})
	u, out := mustGet(t, plain, "k", produceSrc(t, quickSrc))
	if out != Miss {
		t.Fatalf("outcome %v, want miss (fingerprints must not share entries)", out)
	}
	if u.Quickened {
		t.Error("quicken=false store served a quickened unit")
	}

	// Same fingerprint warm-starts from the first store's file.
	q2 := NewStore(Config{Dir: dir, Quicken: true, Fingerprint: "quicken=true"})
	if u2, out := mustGet(t, q2, "k", produceSrc(t, quickSrc)); out != DiskHit || !u2.Quickened {
		t.Errorf("outcome=%v quickened=%v, want disk_hit/true", out, u2.Quickened)
	}
}

// TestStoreDefaultFingerprint: a store given no Fingerprint keys its
// units by "quicken=<bool>,optimize=<bool>", the string vmd and
// forthvm wrote themselves before the store derived it, so their
// cache directories stay valid.
func TestStoreDefaultFingerprint(t *testing.T) {
	dir := t.TempDir()
	mustGet(t, NewStore(Config{Dir: dir, Quicken: true, Fingerprint: "quicken=true,optimize=false"}), "k", produceSrc(t, quickSrc))
	if u, out := mustGet(t, NewStore(Config{Dir: dir, Quicken: true}), "k", produceSrc(t, quickSrc)); out != DiskHit || !u.Quickened {
		t.Errorf("outcome=%v quickened=%v, want disk_hit/true", out, u.Quickened)
	}
}

func TestUnitPrepared(t *testing.T) {
	p, err := forth.CompileWithOptions(plainSrc, forth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := Of(p)
	var a, b atomic.Int64
	const n = 8
	got := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := u.Prepared("pol-a", func() (any, error) { a.Add(1); return new(int), nil })
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if a.Load() != 1 {
		t.Errorf("build for one key ran %d times, want 1", a.Load())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("Prepared returned different blobs for one key")
		}
	}
	// A different key (a different policy) builds its own blob.
	v2, _ := u.Prepared("pol-b", func() (any, error) { b.Add(1); return new(int), nil })
	if b.Load() != 1 || v2 == got[0] {
		t.Error("distinct policy keys must get distinct blobs")
	}
	// Errors are sticky per key, like the old per-engine caches.
	boom := errors.New("boom")
	if _, err := u.Prepared("bad", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := u.Prepared("bad", func() (any, error) { t.Error("rebuilt a failed key"); return nil, nil }); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want sticky boom", err)
	}
}

func TestOfIdentity(t *testing.T) {
	p, err := forth.CompileWithOptions(plainSrc, forth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := Of(p), Of(p)
	if u1 != u2 {
		t.Fatal("Of returned distinct units for one program")
	}
	if u1.Facts() == nil {
		t.Fatal("bare unit has no facts")
	}

	// A store publish wins over a bare intern for the same pointer.
	s := NewStore(Config{})
	u, _ := mustGet(t, s, "k", produceSrc(t, plainSrc))
	if Of(u.Prog) != u {
		t.Error("Of does not resolve a store-published program to its unit")
	}
}

func TestSourceHashMatchesLayout(t *testing.T) {
	h1 := SourceHash("opts-a", "src")
	h2 := SourceHash("opts-b", "src")
	h3 := SourceHash("opts-a", "src")
	if h1 == h2 {
		t.Error("options not folded into the hash")
	}
	if h1 != h3 {
		t.Error("hash not deterministic")
	}
	if len(h1) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(h1))
	}
	// The separator prevents (optKey, src) boundary ambiguity.
	if SourceHash("ab", "c") == SourceHash("a", "bc") {
		t.Error("boundary ambiguity in SourceHash")
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops pooled values at random.
var raceEnabled bool

// TestSourceKeyOneAllocation pins the cache key's bytes, which name
// disk-tier entries, to hex SHA-256 of (options, NUL, source), and its
// cost to one allocation for the store key and the hash together.
func TestSourceKeyOneAllocation(t *testing.T) {
	src := ": main 60 emit 62 emit 38 emit ;\n: unused 1 2 + ;"
	h := sha256.New()
	h.Write([]byte("opts\x00" + src))
	want := hex.EncodeToString(h.Sum(nil))
	key, hash := SourceKey("opts", src)
	if hash != want || key != "src:"+want || SourceHash("opts", src) != want {
		t.Fatalf("SourceKey = %q, %q; SourceHash = %q; want hash %q", key, hash, SourceHash("opts", src), want)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled hash inputs under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { SourceKey("opts", src) }); n != 1 {
		t.Errorf("SourceKey allocates %v times, want 1", n)
	}
}
