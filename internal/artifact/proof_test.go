package artifact

import (
	"fmt"
	"reflect"
	"testing"

	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// TestStoreFactsAreServedProgramFacts: a build analyzes the produced
// program once and carries those facts through optimization's proof
// and quickening, so under every policy the unit's facts must still be
// exactly what a fresh Analyze of the served program derives, before
// and after a disk round trip.
func TestStoreFactsAreServedProgramFacts(t *testing.T) {
	for _, quicken := range []bool{false, true} {
		for _, optimize := range []bool{false, true} {
			cfg := Config{
				Dir: t.TempDir(), Quicken: quicken, Optimize: optimize,
				Fingerprint: fmt.Sprintf("quicken=%t,optimize=%t", quicken, optimize),
			}
			built, loaded := NewStore(cfg), NewStore(cfg)
			for _, w := range workloads.Suite() {
				name := fmt.Sprintf("%s/%s", w.Name, cfg.Fingerprint)
				u, out := mustGet(t, built, w.Name, produceSrc(t, w.Source))
				if out != Miss {
					t.Fatalf("%s: %v, want a miss", name, out)
				}
				if !reflect.DeepEqual(u.Facts(), vm.Analyze(u.Prog)) {
					t.Errorf("%s: unit facts differ from Analyze of the served program", name)
				}
				u2, out := mustGet(t, loaded, w.Name, produceSrc(t, w.Source))
				if out != DiskHit {
					t.Fatalf("%s: %v, want a disk hit", name, out)
				}
				if !reflect.DeepEqual(u2.Facts(), vm.Analyze(u2.Prog)) {
					t.Errorf("%s: facts differ from Analyze after a disk round trip", name)
				}
			}
		}
	}
}

// missAllocsMax bounds the allocations of one store miss of prims2x
// with Quicken and Optimize on, the front end's compile left out: 1.15
// times the 341 measured on Go 1.24.0, with or without the race
// detector. One more Analyze of the served program allocates about 80
// times, so a stage that brings back a repeated Analyze pass, or the
// validator's per-term garbage, fails here.
const missAllocsMax = 392

func TestStoreMissAllocs(t *testing.T) {
	w, ok := workloads.ByName("prims2x")
	if !ok {
		t.Fatal("prims2x workload missing")
	}
	p := w.MustCompile()
	produce := func() (*vm.Program, error) { return p, nil }
	cfg := Config{Quicken: true, Optimize: true}
	if u, _ := mustGet(t, NewStore(cfg), "k", produce); !u.Optimized || !u.Quickened {
		t.Fatalf("prims2x not optimized and quickened (optimized %t, quickened %t)", u.Optimized, u.Quickened)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := NewStore(cfg).GetOrBuild("k", produce); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per miss", allocs)
	if allocs > missAllocsMax {
		t.Errorf("a prims2x store miss allocates %.0f times, want at most %d", allocs, missAllocsMax)
	}
}
