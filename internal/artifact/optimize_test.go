package artifact

import (
	"errors"
	"strings"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/vm"
)

// optSrc folds completely: the optimizer inlines double, folds the
// arithmetic, and the program shrinks to lit/./halt territory.
const optSrc = ": double dup + ; : main 21 double . ;"

func TestStoreOptimizeStage(t *testing.T) {
	s := NewStore(Config{Optimize: true})
	u, _ := mustGet(t, s, "k-opt", produceSrc(t, optSrc))
	if !u.Optimized {
		t.Fatal("unit not optimized")
	}
	total := 0
	for _, n := range u.OptimizedOps {
		total += n
	}
	if total == 0 {
		t.Error("optimized unit reports zero per-pass ops")
	}
	if !u.Facts().Proved {
		t.Error("optimized unit lost its depth proof")
	}
	if c := s.Counters(); c.OptimizeRefused != 0 {
		t.Errorf("unexpected refusals: %+v", c)
	}

	// Off by default: same source, optimizer disabled.
	s2 := NewStore(Config{})
	u2, _ := mustGet(t, s2, "k-opt", produceSrc(t, optSrc))
	if u2.Optimized {
		t.Error("store without Optimize produced an optimized unit")
	}
}

func TestStoreOptimizeRefusalServesUnoptimized(t *testing.T) {
	// Stand in a deliberately wrong optimizer: it claims a rewrite
	// that prints a different constant. The validator must refuse it
	// and the store must serve the unoptimized program.
	defer func() { optimizeFn = vm.OptimizeProof }()
	optimizeFn = func(pf *vm.Proof) *vm.OptResult {
		p := pf.Program()
		bad := &vm.Program{
			Code: []vm.Instr{
				{Op: vm.OpLit, Arg: 999},
				{Op: vm.OpDot},
				{Op: vm.OpHalt},
			},
			MemSize: p.MemSize,
			Data:    p.Data,
		}
		return &vm.OptResult{Prog: bad, Source: p, Changed: true}
	}

	s := NewStore(Config{Optimize: true})
	u, _ := mustGet(t, s, "k-bad", produceSrc(t, optSrc))
	if u.Optimized {
		t.Fatal("miscompiled rewrite was adopted")
	}
	if u.Prog.Code[0].Arg == 999 {
		t.Fatal("unit serves the miscompiled program")
	}
	if c := s.Counters(); c.OptimizeRefused != 1 {
		t.Errorf("OptimizeRefused = %d, want 1", c.OptimizeRefused)
	}
}

// TestStoreOptimizeBudgetRefusalServesUnoptimized runs the real
// optimizer on a call tree it inlines away in full, whose single
// episode is longer than the translation validator's work budget. The
// validator refuses the rewrite with vm.ErrValidatorBudget, and the
// store serves the program unoptimized and counts the refusal.
func TestStoreOptimizeBudgetRefusalServesUnoptimized(t *testing.T) {
	src := ": w0 ; : w1" + strings.Repeat(" w0", 10) + " ; : w2" + strings.Repeat(" w1", 12) + " ; : w3 w1" +
		strings.Repeat(" w2", 14) + " ; : w4 w3 ; : w5 w4 ; : w6 w5 ; : w7 w6 ; : w8 w7 w7 ; : main w8 ;"
	p, err := forth.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r := vm.Optimize(p)
	if !r.Changed {
		t.Fatal("call tree was not rewritten")
	}
	if err := vm.CheckTranslation(p, r.Prog); !errors.Is(err, vm.ErrValidatorBudget) {
		t.Fatalf("CheckTranslation: %v, want a refusal wrapping vm.ErrValidatorBudget", err)
	}
	s := NewStore(Config{Optimize: true})
	u, _ := mustGet(t, s, "k-tree", produceSrc(t, src))
	if u.Optimized || len(u.Prog.Code) != len(p.Code) {
		t.Errorf("unit optimized %v with %d instructions, want the %d-instruction source program",
			u.Optimized, len(u.Prog.Code), len(p.Code))
	}
	if c := s.Counters(); c.OptimizeRefused != 1 {
		t.Errorf("OptimizeRefused = %d, want 1", c.OptimizeRefused)
	}
}

func TestStoreOptimizedUnitDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Optimize: true, Quicken: true, Fingerprint: "quicken=true,optimize=true"}

	s1 := NewStore(cfg)
	u1, out := mustGet(t, s1, "k-disk", produceSrc(t, optSrc))
	if out != Miss {
		t.Fatalf("first build: %v, want miss", out)
	}
	if !u1.Optimized {
		t.Fatal("unit not optimized")
	}

	s2 := NewStore(cfg)
	u2, out := mustGet(t, s2, "k-disk", produceSrc(t, optSrc))
	if out != DiskHit {
		t.Fatalf("warm start: %v, want disk_hit", out)
	}
	if !u2.Optimized || u2.OptimizedOps != u1.OptimizedOps {
		t.Errorf("optimize metadata lost on disk round trip: %+v vs %+v",
			u2.OptimizedOps, u1.OptimizedOps)
	}
	if !vm.Equal(u1.Prog, u2.Prog) {
		t.Error("disk round trip changed the program")
	}
	if u2.Facts().Proved != u1.Facts().Proved {
		t.Error("disk round trip changed the facts")
	}
}

func TestStoreOptimizeFingerprintSeparation(t *testing.T) {
	// An optimize=true store must never read an optimize=false
	// store's disk entries (and vice versa); the fingerprint is the
	// separator, exactly as with quickening.
	dir := t.TempDir()
	sOff := NewStore(Config{Dir: dir, Fingerprint: "quicken=false,optimize=false"})
	uOff, _ := mustGet(t, sOff, "k-fp", produceSrc(t, optSrc))
	if uOff.Optimized {
		t.Fatal("optimize=false store optimized")
	}

	sOn := NewStore(Config{Dir: dir, Optimize: true, Fingerprint: "quicken=false,optimize=true"})
	uOn, out := mustGet(t, sOn, "k-fp", produceSrc(t, optSrc))
	if out == DiskHit {
		t.Fatal("optimize=true store read the optimize=false entry")
	}
	if !uOn.Optimized {
		t.Error("optimize=true store served an unoptimized unit")
	}
}

func TestStoreOptimizeKeepsUnoptimizableProgram(t *testing.T) {
	// A recursive program is not depth-provable; the optimizer
	// declines and the unit must be the plain compiled program with
	// no refusal counted (nothing was proposed).
	src := ": down dup 0 > if 1 - recurse then ; : main 5 down . ;"
	s := NewStore(Config{Optimize: true})
	u, _, err := s.GetOrBuild("k-rec", func() (*vm.Program, error) {
		return forth.CompileWithOptions(src, forth.Options{})
	})
	if err != nil {
		t.Fatalf("GetOrBuild: %v", err)
	}
	if u.Optimized {
		t.Error("unprovable program was optimized")
	}
	if c := s.Counters(); c.OptimizeRefused != 0 {
		t.Errorf("refusal counted for a declined optimization: %+v", c)
	}
}
