package forth

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// FuzzCompile feeds arbitrary source to the compiler: it must either
// fail cleanly or produce a validated program that runs (up to a step
// budget) without panicking.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		`: main 1 2 + . ;`,
		`: main 10 0 do i . loop ;`,
		`variable x : main 5 x ! x @ . ;`,
		`: f dup 0> if 1- recurse then ; : main 10 f . ;`,
		`: main ." hello" s" x" type ;`,
		`: main begin 1 until ;`,
		"0 constant z create t 1 , 2 c, : main t @ . ;",
		`: main ( comment ) \ line`,
		`:::: ;;;;`,
		`: main 99999999999999999999 . ;`,
		`: main [char]`,
		`: main if if if then`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("compiled program does not validate: %v", err)
		}
		m := interp.NewMachine(p)
		m.MaxSteps = 100000
		_ = interp.RunSwitch(m) // runtime errors are fine; panics are not
	})
}

// FuzzCompileEnginesAgree checks behavioural equivalence of all
// engines on fuzzer-found programs that compile and terminate, and
// of the optimizer's rewrite with its source. Fuzzing Forth source
// reaches shapes byte-level fuzzing of bytecode does not: entry
// stubs, nested words, folds that shrink a word until it is inlined.
func FuzzCompileEnginesAgree(f *testing.F) {
	f.Add(`: sq dup * ; : main 4 sq . 2 sq . ;`)
	f.Add(`: main 0 100 0 do i + loop . ;`)
	f.Add(`: main 1 2 3 rot swap over . . . . ;`)
	// Rewrites the validator once refused: h0 is inlined into main and
	// folded, then main into the entry stub.
	f.Add(`variable v0 : h0 or 98 -28 3 / + xor ; : main 21 6 -10 and 6 lshift 37 6 / h0 v0 +! v0 @ . . ;`)
	f.Add(`variable v0 : h0 -8 2 / xor + ; : main 128 -12 1+ 0 rshift 2dup or h0 v0 +! v0 @ . . ;`)
	// A straight-line call tree with 15^8 calls in 443 bytes.
	chain := ": w0 ;\n"
	for i := 1; i <= 8; i++ {
		chain += fmt.Sprintf(": w%d%s ;\n", i, strings.Repeat(fmt.Sprintf(" w%d", i-1), 15))
	}
	f.Add(chain + ": main 1 2 + . w8 ;\n")
	// Folded call trees whose single episode walks every call: the
	// first validates, the second exhausts the validator's budget.
	f.Add(": w5 ; : w6 w5 w5 w5 ; : w7" + strings.Repeat(" w6", 5) + " ; : w8" + strings.Repeat(" w7", 14) + " ; : main w8 ;")
	f.Add(": w0 ; : w1" + strings.Repeat(" w0", 10) + " ; : w2" + strings.Repeat(" w1", 12) + " ; : w3 w1" +
		strings.Repeat(" w2", 14) + " ; : w4 w3 ; : w5 w4 ; : w6 w5 ; : w7 w6 ; : w8 w7 w7 ; : main w8 ;")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		run := func(e interp.Engine) (interp.Snapshot, error) {
			m := interp.NewMachine(p)
			m.MaxSteps = 100000
			var err error
			switch e {
			case interp.EngineSwitch:
				err = interp.RunSwitch(m)
			case interp.EngineToken:
				err = interp.RunToken(m)
			default:
				err = interp.RunThreaded(m)
			}
			return m.Snapshot(), err
		}
		ref, refErr := run(interp.EngineSwitch)
		for _, e := range []interp.Engine{interp.EngineToken, interp.EngineThreaded} {
			got, gotErr := run(e)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("%v error disagreement: %v vs %v", e, refErr, gotErr)
			}
			if refErr == nil && !ref.Equal(got) {
				t.Fatalf("%v result disagreement", e)
			}
		}

		// Optimizer differential, as in FuzzEngines: a rewrite must
		// pass its translation validator or be refused for its budget
		// (the validator refuses, never accepts, what it cannot check in
		// bounded work; the source program is served), and switch must
		// run an accepted one to the source's snapshot or error class in
		// no more steps. A source run the step budget cut short is left
		// out, since the rewrite may finish inside the budget.
		var re *interp.RuntimeError
		if errors.As(refErr, &re) && re.Msg == interp.MsgStepLimit {
			return
		}
		r := vm.Optimize(p)
		if !r.Changed {
			return
		}
		if err := vm.CheckTranslation(p, r.Prog); errors.Is(err, vm.ErrValidatorBudget) {
			return
		} else if err != nil {
			t.Fatalf("optimizer emitted a rewrite its validator refuses: %v\noriginal:\n%s\noptimized:\n%s",
				err, vm.Disassemble(p), vm.Disassemble(r.Prog))
		}
		m := interp.NewMachine(r.Prog)
		m.MaxSteps = 100000
		optErr := interp.RunSwitch(m)
		if (refErr == nil) != (optErr == nil) {
			t.Fatalf("optimized error %v, source error %v", optErr, refErr)
		}
		if refErr != nil {
			var ore *interp.RuntimeError
			if re != nil && errors.As(optErr, &ore) && ore.Msg != re.Msg {
				t.Fatalf("optimized error class %q, source %q", ore.Msg, re.Msg)
			}
			return
		}
		if got := m.Snapshot(); !ref.Equal(got) || got.Steps > ref.Steps {
			t.Fatalf("optimized run diverges from the source run (steps %d vs %d)\noptimized:\n%s",
				got.Steps, ref.Steps, vm.Disassemble(r.Prog))
		}
	})
}
