package stackcache

// Targeted differential coverage for the "compiled" engine — the AOT
// closure compiler of internal/compiled. The registry-driven sweeps
// (malformed_test.go, args_test.go, FuzzEngines) already run it over
// their corpora; the tests here aim at the failure modes specific to
// an engine that fuses instructions and hoists checks to block entry:
//
//   - step-budget exhaustion at EVERY point of a fused program (the
//     budget sweep): mid-node rewind accounting must reproduce the
//     baseline's exact step count, stack and error position;
//   - dynamic jumps into the middle of a fused block (a corrupt OpExit
//     return address), which must land on per-instruction semantics;
//   - unproven programs that consume seeded arguments, which must run
//     fully checked yet bit-identical to the baseline;
//   - the artifact's lowering stats, pinning that fusion and proof-
//     gated check elision actually happen for the paper workloads.

import (
	"testing"

	"stackcache/internal/compiled"
	"stackcache/internal/engine"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// compiledRunner returns the differential runner for the compiled
// engine and the switch baseline.
func compiledRunner(t *testing.T) (compiledE, switchE engineRunner) {
	t.Helper()
	var gotC, gotS bool
	for _, e := range allEngines {
		switch e.name {
		case "compiled":
			compiledE, gotC = e, true
		case "switch":
			switchE, gotS = e, true
		}
	}
	if !gotC || !gotS {
		t.Fatal("compiled or switch engine missing from the registry table")
	}
	return
}

// sweepProgram exercises the compiler's hottest fusion shapes in a
// couple hundred steps: a byte-store loop, the [lit; i; +] indexed
// address, lit-fed masking, the [c@; +] accumulate, and the
// [lit; lit; @; +; c@] indexed table load.
func sweepProgram() *vm.Program {
	ins := func(op vm.Opcode, arg vm.Cell) vm.Instr { return vm.Instr{Op: op, Arg: arg} }
	return &vm.Program{
		MemSize: 64,
		Code: []vm.Instr{
			// 16 0 do i i c! loop — mem[i] = i
			ins(vm.OpLit, 16),
			ins(vm.OpLit, 0),
			ins(vm.OpDo, 0),
			ins(vm.OpI, 0), // 3
			ins(vm.OpI, 0),
			ins(vm.OpCStore, 0),
			ins(vm.OpLoop, 3),
			// 0  16 0 do  3 i + 15 and c@ +  loop — sum a masked walk
			ins(vm.OpLit, 0),
			ins(vm.OpLit, 16),
			ins(vm.OpLit, 0),
			ins(vm.OpDo, 0),
			ins(vm.OpLit, 3), // 11
			ins(vm.OpI, 0),
			ins(vm.OpAdd, 0),
			ins(vm.OpLit, 15),
			ins(vm.OpAnd, 0),
			ins(vm.OpCFetch, 0),
			ins(vm.OpAdd, 0),
			ins(vm.OpLoop, 11),
			ins(vm.OpDot, 0),
			// 9 32 !  5 32 @ + c@ . — the fused indexed byte-table load
			// (the index cell is stored first so the fetch reads a small
			// value, keeping the c@ in range)
			ins(vm.OpLit, 9),
			ins(vm.OpLit, 32),
			ins(vm.OpStore, 0),
			ins(vm.OpLit, 5),
			ins(vm.OpLit, 32),
			ins(vm.OpFetch, 0),
			ins(vm.OpAdd, 0),
			ins(vm.OpCFetch, 0),
			ins(vm.OpDot, 0),
			ins(vm.OpHalt, 0),
		},
	}
}

// errMsg extracts the RuntimeError class, failing the test on any
// other error type.
func errMsg(t *testing.T, name string, err error) string {
	t.Helper()
	if err == nil {
		return ""
	}
	re, ok := err.(*interp.RuntimeError)
	if !ok {
		t.Fatalf("%s: error %v (%T) is not a RuntimeError", name, err, err)
	}
	return re.Msg
}

// TestCompiledBudgetSweep runs the fusion-heavy program under every
// step budget from 1 to past completion, on both the facts-attached
// and the pinned-checked paths, and requires the compiled engine to be
// observably identical to the switch baseline at each one. This is
// the strongest probe of the compiler's step accounting: every budget
// that exhausts mid-node must rewind to the baseline's exact state.
func TestCompiledBudgetSweep(t *testing.T) {
	ce, se := compiledRunner(t)
	p := sweepProgram()

	full, err := se.runSpec(p, interp.ExecSpec{MaxSteps: 1 << 20})
	if err != nil {
		t.Fatalf("baseline full run: %v", err)
	}
	for _, facts := range []*vm.Facts{nil, vm.NoFacts} {
		for b := int64(1); b <= full.Steps+2; b++ {
			spec := interp.ExecSpec{MaxSteps: b, Facts: facts}
			wantSnap, wantErr := se.runSpec(p, spec)
			gotSnap, gotErr := ce.runSpec(p, spec)
			if wm, gm := errMsg(t, "switch", wantErr), errMsg(t, "compiled", gotErr); wm != gm {
				t.Fatalf("budget %d (facts=%v): compiled error %q, switch %q", b, facts, gm, wm)
			}
			if !wantSnap.Equal(gotSnap) {
				t.Fatalf("budget %d (facts=%v): compiled snapshot diverges from switch\n"+
					"switch:   %+v\ncompiled: %+v", b, facts, wantSnap, gotSnap)
			}
			// Snapshot.Equal ignores step counts; the compiled engine
			// eliminates dispatch, not instructions, so its accounting
			// must agree exactly — especially at exhaustion, where the
			// count fixes the error position.
			if wantSnap.Steps != gotSnap.Steps {
				t.Fatalf("budget %d (facts=%v): compiled ran %d steps, switch %d",
					b, facts, gotSnap.Steps, wantSnap.Steps)
			}
		}
	}
}

// TestCompiledCorruptExitEntry pushes mid-block pcs — including the
// middle of a fused run and one past the end of the program — onto the
// return stack and exits through them. The compiled engine must land
// on exact per-instruction semantics wherever the jump enters. The
// blocks that end in a control transfer (branch, 0branch taken and not
// taken, call, exit, loop) make the single-step path execute that
// transfer and keep going to halt, so a fallback that resumes anywhere
// but where the transfer went diverges from switch.
func TestCompiledCorruptExitEntry(t *testing.T) {
	ce, se := compiledRunner(t)
	ins := func(op vm.Opcode, arg vm.Cell) vm.Instr { return vm.Instr{Op: op, Arg: arg} }
	// exitTo is the corrupt return: push target, move it to the return
	// stack, exit through it.
	exitTo := func(target vm.Cell) []vm.Instr {
		return []vm.Instr{ins(vm.OpLit, target), ins(vm.OpToR, 0), ins(vm.OpExit, 0)}
	}
	cases := []struct {
		name    string
		code    func(target vm.Cell) []vm.Instr
		targets []vm.Cell
		halts   bool // every target runs on to halt
	}{{
		name: "fused run",
		code: func(target vm.Cell) []vm.Instr {
			return append(exitTo(target),
				// A fusable straight-line block the exit can land inside.
				ins(vm.OpLit, 1), // 3
				ins(vm.OpLit, 2),
				ins(vm.OpAdd, 0), // 5: mid-run entry
				ins(vm.OpLit, 3),
				ins(vm.OpAdd, 0),
				ins(vm.OpDot, 0), // 8: underflows when entered directly
				ins(vm.OpHalt, 0))
		},
		targets: []vm.Cell{3, 5, 6, 7, 8, 9, 10, 99, -1},
	}, {
		name: "branch",
		code: func(target vm.Cell) []vm.Instr {
			return append(exitTo(target),
				ins(vm.OpLit, 1), // 3
				ins(vm.OpLit, 2), // 4: entry
				ins(vm.OpBranch, 8),
				ins(vm.OpLit, 99), // 6
				ins(vm.OpHalt, 0),
				ins(vm.OpDot, 0), // 8
				ins(vm.OpHalt, 0))
		},
		targets: []vm.Cell{4},
		halts:   true,
	}, {
		name: "0branch taken",
		code: func(target vm.Cell) []vm.Instr {
			return append(exitTo(target),
				ins(vm.OpLit, 7), // 3
				ins(vm.OpLit, 5), // 4: entry
				ins(vm.OpLit, 0),
				ins(vm.OpBranchZero, 9),
				ins(vm.OpLit, 99), // 7
				ins(vm.OpHalt, 0),
				ins(vm.OpDot, 0), // 9
				ins(vm.OpHalt, 0))
		},
		targets: []vm.Cell{4},
		halts:   true,
	}, {
		name: "0branch not taken",
		code: func(target vm.Cell) []vm.Instr {
			return append(exitTo(target),
				ins(vm.OpLit, 7), // 3
				ins(vm.OpLit, 5), // 4: entry
				ins(vm.OpLit, 1),
				ins(vm.OpBranchZero, 9),
				ins(vm.OpDot, 0), // 7
				ins(vm.OpHalt, 0),
				ins(vm.OpLit, 99), // 9
				ins(vm.OpHalt, 0))
		},
		targets: []vm.Cell{4},
		halts:   true,
	}, {
		name: "call",
		code: func(target vm.Cell) []vm.Instr {
			return append(exitTo(target),
				ins(vm.OpLit, 1), // 3
				ins(vm.OpLit, 5), // 4: entry
				ins(vm.OpCall, 8),
				ins(vm.OpDot, 0), // 6
				ins(vm.OpHalt, 0),
				ins(vm.OpOnePlus, 0), // 8: the callee
				ins(vm.OpExit, 0))
		},
		targets: []vm.Cell{4},
		halts:   true,
	}, {
		// Called first, so the exit at the end of the landing block
		// has a real return address under the corrupt one.
		name: "exit",
		code: func(target vm.Cell) []vm.Instr {
			return []vm.Instr{
				ins(vm.OpCall, 4),
				ins(vm.OpDot, 0), // 1
				ins(vm.OpHalt, 0),
				ins(vm.OpHalt, 0),
				ins(vm.OpLit, target), // 4
				ins(vm.OpToR, 0),
				ins(vm.OpExit, 0),
				ins(vm.OpLit, 1),  // 7
				ins(vm.OpLit, 41), // 8: entry
				ins(vm.OpOnePlus, 0),
				ins(vm.OpExit, 0),
			}
		},
		targets: []vm.Cell{8},
		halts:   true,
	}, {
		// The loop is entered first, so the landing block's loop has
		// its limit and index on the return stack.
		name: "loop",
		code: func(target vm.Cell) []vm.Instr {
			return []vm.Instr{
				ins(vm.OpLit, 70),
				ins(vm.OpLit, 3),
				ins(vm.OpLit, 0),
				ins(vm.OpDo, 0),
				ins(vm.OpLit, target), // 4
				ins(vm.OpToR, 0),
				ins(vm.OpExit, 0),
				ins(vm.OpI, 0),   // 7
				ins(vm.OpDot, 0), // 8: entry
				ins(vm.OpLoop, 7),
				ins(vm.OpHalt, 0),
			}
		},
		targets: []vm.Cell{8},
		halts:   true,
	}}
	for _, c := range cases {
		for _, target := range c.targets {
			p := &vm.Program{MemSize: 64, Code: c.code(target)}
			spec := interp.ExecSpec{MaxSteps: 1000}
			wantSnap, wantErr := se.runSpec(p, spec)
			gotSnap, gotErr := ce.runSpec(p, spec)
			if c.halts && wantErr != nil {
				t.Fatalf("%s, exit to %d: switch does not halt: %v", c.name, target, wantErr)
			}
			wm := ""
			if wantErr != nil {
				wm = wantErr.Error()
			}
			gm := ""
			if gotErr != nil {
				gm = gotErr.Error()
			}
			if wm != gm {
				t.Errorf("%s, exit to %d: compiled error %q, switch %q", c.name, target, gm, wm)
				continue
			}
			if !wantSnap.Equal(gotSnap) || wantSnap.Steps != gotSnap.Steps {
				t.Errorf("%s, exit to %d: compiled snapshot diverges from switch\n"+
					"switch:   %+v\ncompiled: %+v", c.name, target, wantSnap, gotSnap)
			}
		}
	}
}

// TestCompiledUnprovenArgs runs argument-consuming programs — which
// vm.Analyze cannot prove, so the compiled engine must take its fully
// checked variant — across every exact engine and requires bit-for-bit
// agreement, on successes and on underflow errors alike.
func TestCompiledUnprovenArgs(t *testing.T) {
	ins := func(op vm.Opcode, arg vm.Cell) vm.Instr { return vm.Instr{Op: op, Arg: arg} }
	progs := []struct {
		name string
		code []vm.Instr
	}{
		{"add-dot", []vm.Instr{ins(vm.OpAdd, 0), ins(vm.OpDot, 0), ins(vm.OpHalt, 0)}},
		{"swap-sub", []vm.Instr{ins(vm.OpSwap, 0), ins(vm.OpSub, 0), ins(vm.OpDot, 0), ins(vm.OpHalt, 0)}},
		{"store-load", []vm.Instr{
			ins(vm.OpLit, 8), ins(vm.OpStore, 0),
			ins(vm.OpLit, 8), ins(vm.OpFetch, 0), ins(vm.OpDot, 0), ins(vm.OpHalt, 0)}},
	}
	argSets := [][]vm.Cell{nil, {7}, {30, 12}, {1, 2, 3, 4, 5, 6, 7, 8}}
	for _, pr := range progs {
		p := &vm.Program{Code: pr.code, MemSize: 64}
		if engine.FactsFor(p).Proved {
			t.Fatalf("%s: expected unproven, analysis proved it", pr.name)
		}
		for _, args := range argSets {
			spec := interp.ExecSpec{MaxSteps: 1000, Args: args}
			base := allEngines[0]
			wantSnap, wantErr := base.runSpec(p, spec)
			wm := errMsg(t, "switch", wantErr)
			for _, e := range allEngines[1:] {
				if e.needsVerify {
					continue
				}
				gotSnap, gotErr := e.runSpec(p, spec)
				if gm := errMsg(t, e.name, gotErr); gm != wm {
					t.Errorf("%s/%v: engine %s error %q, switch %q", pr.name, args, e.name, gm, wm)
					continue
				}
				if wantErr == nil && !wantSnap.Equal(gotSnap) {
					t.Errorf("%s/%v: engine %s snapshot diverges from switch", pr.name, args, e.name)
				}
			}
		}
	}
}

// TestCompiledArtifactStats pins that the lowering actually does what
// the package doc claims on the paper workloads: blocks form, fusion
// shrinks the closure count well below the instruction count, folding
// fires, and proof-gated elision follows the analysis verdict.
func TestCompiledArtifactStats(t *testing.T) {
	anyElided := false
	for _, name := range []string{"compile", "gray", "prims2x", "cross"} {
		p := benchProgram(t, name)
		facts := engine.FactsFor(p)
		a, err := compiled.Compile(p, facts)
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		s := a.Stats()
		if s.Blocks == 0 || s.Instructions == 0 {
			t.Errorf("%s: empty lowering: %+v", name, s)
		}
		// Guard-form blocks still build their backing closure chains (for
		// run entry and bail-out), so the ratio stays well above the
		// executed-path fusion rate; this pins only that fusion happens.
		if s.Nodes >= s.Instructions {
			t.Errorf("%s: fusion dead: %d nodes for %d instructions", name, s.Nodes, s.Instructions)
		}
		if s.Elided != facts.Proved {
			t.Errorf("%s: Elided=%v but facts.Proved=%v", name, s.Elided, facts.Proved)
		}
		anyElided = anyElided || s.Elided
		// Without facts there must never be an elided variant.
		u, err := compiled.Compile(p, nil)
		if err != nil {
			t.Fatalf("%s: Compile(nil facts): %v", name, err)
		}
		if u.Stats().Elided {
			t.Errorf("%s: elided variant without facts", name)
		}
	}
	if !anyElided {
		t.Error("no paper workload compiled with an elided variant; the proof-gated path is dead")
	}
	if _, err := compiled.Compile(nil, nil); err == nil {
		t.Error("Compile(nil) succeeded, want error")
	}
}
