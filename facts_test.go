package stackcache

// Cross-engine differential tests for check elision: a proved program
// runs the check-elided path of the engines that have one (token,
// threaded, traced, compiled), and that path must be observably
// indistinguishable from the fully checked one. The elision kill
// switch (vm.NoFacts pinned through ExecSpec.Facts) runs the same
// engine's checked path over the same program, so each engine is
// differenced against itself — the sharpest possible test that the
// fast paths changed performance and nothing else. Engines without an
// elided path run checked both times and ride along as controls.

import (
	"testing"

	"stackcache/internal/engine"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// TestAnalysisCapsMatchMachine pins the analysis capacities to the
// machine's default stack sizes: the proof is against
// AnalysisDepthCap, the engines elide against DefaultStackCap, and
// the elision gate is only exactly as strong as these agree (the gate
// re-checks actual headroom, so a drift degrades to checked execution,
// but the proved fast path would silently stop firing).
func TestAnalysisCapsMatchMachine(t *testing.T) {
	if vm.AnalysisDepthCap != interp.DefaultStackCap {
		t.Errorf("AnalysisDepthCap %d != DefaultStackCap %d",
			vm.AnalysisDepthCap, interp.DefaultStackCap)
	}
	if vm.AnalysisRDepthCap != interp.DefaultRStackCap {
		t.Errorf("AnalysisRDepthCap %d != DefaultRStackCap %d",
			vm.AnalysisRDepthCap, interp.DefaultRStackCap)
	}
}

// TestWorkloadsProved is the acceptance pin for the analysis over the
// benchmark programs: every iterative workload proves its depth
// bounds; the two recursive ones (gray, fib) stay unproven because
// their stack depth genuinely depends on input data — a sound analysis
// must not prove them, and the engines must keep their checks there.
func TestWorkloadsProved(t *testing.T) {
	wantUnproven := map[string]bool{"gray": true, "fib": true}
	for _, w := range workloads.All() {
		p, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		f := vm.Analyze(p)
		if wantUnproven[w.Name] {
			if f.Proved {
				t.Errorf("%s: recursive workload proved — unsound", w.Name)
			}
			continue
		}
		if !f.Proved {
			t.Errorf("%s: unproven: %v", w.Name, f.Violations)
			continue
		}
		if f.MaxDepth <= 0 || f.MaxDepth > vm.AnalysisDepthCap ||
			f.MaxRDepth < 0 || f.MaxRDepth > vm.AnalysisRDepthCap {
			t.Errorf("%s: implausible proved maxima depth=%d rdepth=%d",
				w.Name, f.MaxDepth, f.MaxRDepth)
		}
	}
}

// TestElisionDifferentialAllEngines runs every workload on every
// engine twice — facts attached (proved programs take the fast path
// where an engine has one) and facts pinned to NoFacts (checked path)
// — and requires identical snapshots. The set includes fib, so the
// unproven path (where both runs are checked) rides along as a
// control. The full-size workloads matter here, not just the micros:
// their deep stacks drive the cache-overflow spill transitions of the
// caching engines, which the micros never reach.
func TestElisionDifferentialAllEngines(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		proved := engine.FactsFor(p).Proved
		for _, e := range allEngines {
			on, errOn := e.runSpec(p, interp.ExecSpec{MaxSteps: 1 << 24})
			off, errOff := e.runSpec(p, interp.ExecSpec{MaxSteps: 1 << 24, Facts: vm.NoFacts})
			if (errOn == nil) != (errOff == nil) {
				t.Errorf("%s/%s (proved=%v): elided err %v, checked err %v",
					w.Name, e.name, proved, errOn, errOff)
				continue
			}
			if errOn != nil {
				t.Errorf("%s/%s: %v", w.Name, e.name, errOn)
				continue
			}
			if !on.Equal(off) {
				t.Errorf("%s/%s (proved=%v): elided and checked runs diverge\nelided:  %+v\nchecked: %+v",
					w.Name, e.name, proved, on, off)
			}
		}
	}
}

// TestElisionDifferentialWithArgs repeats the elision differential
// with a seeded initial stack under a proved program: the proof is
// relative to an empty entry stack, an initial depth d shifts every
// proved interval upward by d, and the gate's headroom re-check must
// keep the transfer sound. (A program that *consumes* its args, like
// ": main + . ;", is unproven by construction — the abstract entry
// stack is empty — which TestArgConsumersStayUnproven pins.)
func TestElisionDifferentialWithArgs(t *testing.T) {
	p := compileArgs(t, ": main 1 2 + . ;")
	if !engine.FactsFor(p).Proved {
		t.Fatal("trivial program unproven")
	}
	args := []vm.Cell{30, 12}
	for _, e := range allEngines {
		on, errOn := e.runSpec(p, interp.ExecSpec{MaxSteps: argsMaxSteps, Args: args})
		off, errOff := e.runSpec(p, interp.ExecSpec{MaxSteps: argsMaxSteps, Args: args, Facts: vm.NoFacts})
		if errOn != nil || errOff != nil {
			t.Errorf("%s: errs %v / %v", e.name, errOn, errOff)
			continue
		}
		if !on.Equal(off) {
			t.Errorf("%s: elided and checked runs diverge with args", e.name)
		}
		if on.Output != "3 " {
			t.Errorf("%s: output %q, want %q", e.name, on.Output, "3 ")
		}
	}
}

// TestArgConsumersStayUnproven pins the proof's frame of reference:
// depth facts are relative to an empty stack at entry, so a program
// that pops cells it never pushed cannot be proved — it must run (and
// succeed, given args) on the checked path everywhere.
func TestArgConsumersStayUnproven(t *testing.T) {
	p := compileArgs(t, ": main + . ;")
	if engine.FactsFor(p).Proved {
		t.Fatal("arg-consuming program proved against an empty entry stack")
	}
	spec := interp.ExecSpec{MaxSteps: argsMaxSteps, Args: []vm.Cell{30, 12}}
	runAllWithSpec(t, p, spec)
}

// TestVerifyStrictGatesUnprovenPrograms checks the strict verifier
// end-to-end at this level: the compiled recursive workload passes
// Verify but not VerifyStrict, and the reported violation is
// pc-precise (names a real instruction).
func TestVerifyStrictGatesUnprovenPrograms(t *testing.T) {
	w, ok := workloads.ByName("fib")
	if !ok {
		t.Fatal("fib workload missing")
	}
	p, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Verify(p); err != nil {
		t.Fatalf("Verify rejected a compiled workload: %v", err)
	}
	if err := vm.VerifyStrict(p); err == nil {
		t.Fatal("VerifyStrict accepted a recursive program")
	}
}
