package stackcache

// FuzzEngines is the cross-engine differential fuzzer: it decodes
// arbitrary bytes into a (possibly malformed, unverified) program plus
// an arbitrary initial data stack, and runs both on every engine. No
// engine may panic; the exact engines must produce the switch
// baseline's result bit-for-bit on success and its error class on
// failure. This is the dynamic half of the execution contract whose
// static half is vm.Verify — see DESIGN.md. Fuzzing the initial stack
// exercises the ExecSpec seeding paths — the caching engines must load
// their register files (and spill the remainder) from arbitrary
// starting depths, not just from empty.

import (
	"errors"
	"reflect"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// fuzzMaxSteps bounds fuzzed executions. It is chosen so stack
// overflow is unreachable: an instruction pushes at most 2 cells net,
// so depth stays under 2*512+overhead, far below DefaultStackCap.
// That matters because cached engines detect overflow at flush time,
// a different step than the baseline, which would otherwise be the
// one benign divergence in error position.
const fuzzMaxSteps = 512

// fuzzInstrCap bounds the decoded program length so plan compilation
// stays cheap.
const fuzzInstrCap = 256

// fuzzArgCap bounds the decoded initial stack. Together with
// fuzzMaxSteps it keeps the reachable depth far below DefaultStackCap,
// preserving the no-overflow property above.
const fuzzArgCap = 48

// decodeFuzzArgs turns raw bytes into an initial data stack, one cell
// per byte with the same int8-extreme mapping as instruction
// arguments.
func decodeFuzzArgs(data []byte) []vm.Cell {
	n := len(data)
	if n > fuzzArgCap {
		n = fuzzArgCap
	}
	args := make([]vm.Cell, n)
	for i := 0; i < n; i++ {
		switch a := int8(data[i]); a {
		case 127:
			args[i] = 1 << 62
		case -128:
			args[i] = -(1 << 62)
		default:
			args[i] = vm.Cell(a)
		}
	}
	return args
}

// decodeFuzzProgram turns raw fuzz bytes into a program: two bytes per
// instruction. The opcode byte is taken modulo NumOpcodes+1 so one
// value past the last real opcode (an invalid one) is reachable. The
// argument byte maps the int8 extremes to ±1<<62 so overflow-prone
// address arithmetic gets exercised, and small values otherwise.
func decodeFuzzProgram(data []byte) *vm.Program {
	n := len(data) / 2
	if n == 0 {
		return nil
	}
	if n > fuzzInstrCap {
		n = fuzzInstrCap
	}
	code := make([]vm.Instr, n)
	for i := range code {
		op := vm.Opcode(uint(data[2*i]) % uint(vm.NumOpcodes+1))
		var arg vm.Cell
		switch a := int8(data[2*i+1]); a {
		case 127:
			arg = 1 << 62
		case -128:
			arg = -(1 << 62)
		default:
			arg = vm.Cell(a)
		}
		code[i] = vm.Instr{Op: op, Arg: arg}
	}
	return &vm.Program{Code: code, Entry: 0, MemSize: 128}
}

// validated reports whether the translation validator accepts opt as
// a rewrite of p. A refusal wrapping vm.ErrValidatorBudget is the
// validator's documented answer when its bounded work runs out (the
// rewrite is refused, never accepted, and the source program served)
// and reports false; any other refusal fails the test.
func validated(t *testing.T, p, opt *vm.Program) bool {
	t.Helper()
	err := vm.CheckTranslation(p, opt)
	if err != nil && !errors.Is(err, vm.ErrValidatorBudget) {
		t.Fatalf("optimizer emitted a rewrite its validator refuses: %v\noriginal:\n%s\noptimized:\n%s",
			err, vm.Disassemble(p), vm.Disassemble(opt))
	}
	return err == nil
}

func FuzzEngines(f *testing.F) {
	// The two ISSUE reproducers, arg-adjusted into the encoding: a
	// corrupt OpExit return address and the OpType 1<<62 overflow.
	f.Add([]byte{byte(vm.OpLit), 100, byte(vm.OpToR), 0, byte(vm.OpExit), 0}, []byte{})
	f.Add([]byte{byte(vm.OpLit), 127, byte(vm.OpLit), 127, byte(vm.OpType), 0, byte(vm.OpHalt), 0}, []byte{})
	// Other interesting shapes: negative branch, call/exit pair,
	// division by zero, counted loop, memory traffic, huge addresses —
	// several seeded with nonzero initial stacks so the arg-decoding
	// corpus has starting points: consumed args, extreme cells, and
	// deeper-than-register-file seeds.
	f.Add([]byte{byte(vm.OpBranch), 0x80, byte(vm.OpHalt), 0}, []byte{1, 2, 3})
	f.Add([]byte{byte(vm.OpCall), 2, byte(vm.OpHalt), 0, byte(vm.OpLit), 9, byte(vm.OpExit), 0}, []byte{})
	f.Add([]byte{byte(vm.OpLit), 1, byte(vm.OpLit), 0, byte(vm.OpDiv), 0, byte(vm.OpHalt), 0}, []byte{5})
	f.Add([]byte{byte(vm.OpLit), 3, byte(vm.OpLit), 0, byte(vm.OpDo), 0,
		byte(vm.OpI), 0, byte(vm.OpDot), 0, byte(vm.OpLoop), 3, byte(vm.OpHalt), 0}, []byte{0x80, 127})
	f.Add([]byte{byte(vm.OpLit), 42, byte(vm.OpLit), 8, byte(vm.OpStore), 0,
		byte(vm.OpLit), 8, byte(vm.OpFetch), 0, byte(vm.OpDot), 0, byte(vm.OpHalt), 0}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{byte(vm.OpLit), 0x81, byte(vm.OpFetch), 0, byte(vm.OpHalt), 0}, []byte{})
	// Args consumed directly: add then print whatever was seeded.
	f.Add([]byte{byte(vm.OpAdd), 0, byte(vm.OpDot), 0, byte(vm.OpHalt), 0}, []byte{30, 12})
	// Deeper than any register file: 16 seeded cells through a popping loop.
	f.Add([]byte{byte(vm.OpDrop), 0, byte(vm.OpHalt), 0},
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Provable programs, so the corpus definitely exercises the
	// check-elided fast paths of token, threaded, traced and compiled
	// (vm.Analyze proves them; the elision differential below compares
	// them against the checked paths):
	// straight-line arithmetic, a call/exit pair, and a counted loop.
	f.Add([]byte{byte(vm.OpLit), 6, byte(vm.OpLit), 7, byte(vm.OpMul), 0,
		byte(vm.OpDot), 0, byte(vm.OpHalt), 0}, []byte{})
	f.Add([]byte{byte(vm.OpCall), 2, byte(vm.OpHalt), 0,
		byte(vm.OpLit), 9, byte(vm.OpDot), 0, byte(vm.OpExit), 0}, []byte{})
	f.Add([]byte{byte(vm.OpLit), 4, byte(vm.OpLit), 0, byte(vm.OpDo), 0,
		byte(vm.OpI), 0, byte(vm.OpDot), 0, byte(vm.OpLoop), 3, byte(vm.OpHalt), 0}, []byte{})
	// The compiled engine's fused superinstruction shapes: the indexed
	// byte-table load [lit; lit; @; +; c@] (one proved, one whose huge
	// literal fails at the fetch mid-fusion) and the return-stack test
	// feeding a 0branch, which it folds into its transfer loop.
	f.Add([]byte{byte(vm.OpLit), 5, byte(vm.OpLit), 2, byte(vm.OpFetch), 0,
		byte(vm.OpAdd), 0, byte(vm.OpCFetch), 0, byte(vm.OpDot), 0, byte(vm.OpHalt), 0}, []byte{})
	f.Add([]byte{byte(vm.OpLit), 5, byte(vm.OpLit), 127, byte(vm.OpFetch), 0,
		byte(vm.OpAdd), 0, byte(vm.OpCFetch), 0, byte(vm.OpDot), 0, byte(vm.OpHalt), 0}, []byte{})
	f.Add([]byte{byte(vm.OpLit), 2, byte(vm.OpToR), 0,
		byte(vm.OpRFetch), 0, byte(vm.OpZeroEq), 0, byte(vm.OpBranchZero), 0,
		byte(vm.OpHalt), 0}, []byte{3})

	f.Fuzz(func(t *testing.T, data, argBytes []byte) {
		p := decodeFuzzProgram(data)
		if p == nil {
			return
		}
		verified := vm.Verify(p) == nil
		spec := interp.ExecSpec{MaxSteps: fuzzMaxSteps, Args: decodeFuzzArgs(argBytes)}

		base := allEngines[0]
		baseSnap, baseErr := base.runSpec(p, spec)
		var baseMsg string
		if baseErr != nil {
			re, ok := baseErr.(*interp.RuntimeError)
			if !ok {
				t.Fatalf("baseline error %v (%T) is not a RuntimeError", baseErr, baseErr)
			}
			baseMsg = re.Msg
		}

		for _, e := range allEngines[1:] {
			snap, err := e.runSpec(p, spec)
			if e.needsVerify {
				// statcache requires verified input and deviates (by
				// design: the guard zone) on underflowing programs.
				// It must never panic — already established by having
				// returned — and must match the baseline whenever the
				// baseline succeeds and the plan compiled.
				if verified && baseErr == nil && err == nil && !baseSnap.Equal(snap) {
					t.Errorf("engine %s: snapshot diverges from switch baseline\nprogram:\n%s",
						e.name, vm.Disassemble(p))
				}
				continue
			}
			if baseErr == nil {
				if err != nil {
					t.Errorf("engine %s: error %v, switch baseline succeeded\nprogram:\n%s",
						e.name, err, vm.Disassemble(p))
					continue
				}
				if !baseSnap.Equal(snap) {
					t.Errorf("engine %s: snapshot diverges from switch baseline\nprogram:\n%s",
						e.name, vm.Disassemble(p))
				}
				continue
			}
			if err == nil {
				t.Errorf("engine %s: succeeded, switch baseline failed with %v\nprogram:\n%s",
					e.name, baseErr, vm.Disassemble(p))
				continue
			}
			re, ok := err.(*interp.RuntimeError)
			if !ok {
				t.Errorf("engine %s: error %v (%T) is not a RuntimeError", e.name, err, err)
				continue
			}
			if re.Msg != baseMsg {
				t.Errorf("engine %s: error class %q, switch baseline %q\nprogram:\n%s",
					e.name, re.Msg, baseMsg, vm.Disassemble(p))
			}
		}

		// Quickening differential: when the decoded program verifies
		// and the fusion table plants anything in it, every engine's
		// run of the QUICKENED program must reproduce the baseline's
		// run of the original — snapshot on success, error class on
		// failure. (Decoded programs also plant super opcodes directly,
		// with garbage tails; that de-fuse path is covered by the main
		// loop above. This covers the tails vm.Quicken actually
		// produces, over fuzzed programs and fuzzed initial stacks.)
		// Its facts must equal the original's too: the artifact store
		// carries them over instead of re-analyzing.
		if verified {
			if q, n := vm.Quicken(p); n > 0 {
				if fq, fp := vm.Analyze(q), vm.Analyze(p); !reflect.DeepEqual(fq, fp) {
					t.Errorf("quickening changed the facts: %+v, unquickened %+v\nprogram:\n%s",
						fq, fp, vm.Disassemble(q))
				}
				for _, e := range allEngines {
					snap, err := e.runSpec(q, spec)
					if e.needsVerify {
						if baseErr == nil && err == nil && !baseSnap.Equal(snap) {
							t.Errorf("engine %s: quickened snapshot diverges from unquickened switch\nprogram:\n%s",
								e.name, vm.Disassemble(q))
						}
						continue
					}
					if (baseErr == nil) != (err == nil) {
						t.Errorf("engine %s: quickened err %v, unquickened switch err %v\nprogram:\n%s",
							e.name, err, baseErr, vm.Disassemble(q))
						continue
					}
					if err != nil {
						if re, ok := err.(*interp.RuntimeError); ok && re.Msg != baseMsg {
							t.Errorf("engine %s: quickened error class %q, unquickened switch %q\nprogram:\n%s",
								e.name, re.Msg, baseMsg, vm.Disassemble(q))
						}
						continue
					}
					if !baseSnap.Equal(snap) || baseSnap.Steps != snap.Steps {
						t.Errorf("engine %s: quickened run diverges from unquickened switch (steps %d vs %d)\nprogram:\n%s",
							e.name, snap.Steps, baseSnap.Steps, vm.Disassemble(q))
					}
				}
			}
		}

		// Optimizer differential: when the optimizer rewrites the
		// decoded program, the rewrite must first survive its own
		// translation validator (a Changed result the validator refuses
		// is an optimizer bug — the artifact pipeline would fall back,
		// but the fuzzer treats it as a failure — unless the refusal is
		// the validator's bounded work running out, ErrValidatorBudget,
		// which it documents as refuse-never-accept), and every engine's run
		// of the OPTIMIZED program must reproduce the baseline's run of
		// the original on the same fuzzed initial stack: snapshot on
		// success, error class on failure, never more steps.
		// When the baseline hit the fuzz step budget the optimized
		// program may legitimately finish inside it (it needs fewer
		// steps) and then reach states the truncated baseline never saw,
		// so the differential only applies to budget-free baselines —
		// exactly the service's budget-sweep contract.
		if verified && baseMsg != "step limit exceeded" {
			if r := vm.Optimize(p); r.Changed && validated(t, p, r.Prog) {
				for _, e := range allEngines {
					snap, err := e.runSpec(r.Prog, spec)
					if e.needsVerify {
						if baseErr == nil && err == nil && !baseSnap.Equal(snap) {
							t.Errorf("engine %s: optimized snapshot diverges from unoptimized switch\nprogram:\n%s",
								e.name, vm.Disassemble(r.Prog))
						}
						continue
					}
					if (baseErr == nil) != (err == nil) {
						t.Errorf("engine %s: optimized err %v, unoptimized switch err %v\nprogram:\n%s",
							e.name, err, baseErr, vm.Disassemble(r.Prog))
						continue
					}
					if err != nil {
						if re, ok := err.(*interp.RuntimeError); ok && re.Msg != baseMsg {
							t.Errorf("engine %s: optimized error class %q, unoptimized switch %q\nprogram:\n%s",
								e.name, re.Msg, baseMsg, vm.Disassemble(r.Prog))
						}
						continue
					}
					if !baseSnap.Equal(snap) {
						t.Errorf("engine %s: optimized run diverges from unoptimized switch\nprogram:\n%s",
							e.name, vm.Disassemble(r.Prog))
					}
					if snap.Steps > baseSnap.Steps {
						t.Errorf("engine %s: optimized run took %d steps, source %d — validator promises no more\nprogram:\n%s",
							e.name, snap.Steps, baseSnap.Steps, vm.Disassemble(r.Prog))
					}
				}
			}
		}

		// Elision differential: every engine differenced against
		// itself with the elision kill switch thrown. The runs above
		// attach analysis facts (proved programs take the check-elided
		// fast path of the engines that have one); pinning vm.NoFacts
		// forces the checked path over the same program and spec, and
		// the two must be observably identical — same snapshot or the
		// same error — whatever the analysis concluded.
		specNo := spec
		specNo.Facts = vm.NoFacts
		for _, e := range allEngines {
			snapOn, errOn := e.runSpec(p, spec)
			snapOff, errOff := e.runSpec(p, specNo)
			if (errOn == nil) != (errOff == nil) {
				t.Errorf("engine %s: elided err %v, checked err %v\nprogram:\n%s",
					e.name, errOn, errOff, vm.Disassemble(p))
				continue
			}
			if errOn != nil {
				onRE, ok1 := errOn.(*interp.RuntimeError)
				offRE, ok2 := errOff.(*interp.RuntimeError)
				if ok1 && ok2 && onRE.Msg != offRE.Msg {
					t.Errorf("engine %s: elided error class %q, checked %q\nprogram:\n%s",
						e.name, onRE.Msg, offRE.Msg, vm.Disassemble(p))
				}
				continue
			}
			if !snapOn.Equal(snapOff) {
				t.Errorf("engine %s: elided and checked runs diverge\nprogram:\n%s",
					e.name, vm.Disassemble(p))
			}
		}
	})
}
