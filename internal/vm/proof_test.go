package vm_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// raceEnabled is set under the race detector (race_test.go), which
// slows the validator about tenfold; wall-clock bounds skip then.
var raceEnabled bool

// TestQuickenKeepsFacts pins the identity Proof.Quicken relies on:
// quickening changes no fact Analyze derives, on every workload the
// fusion table was mined from and on an unproven program whose
// violation sits on a planted superinstruction.
func TestQuickenKeepsFacts(t *testing.T) {
	progs := map[string]*vm.Program{}
	for _, w := range append(workloads.Suite(), workloads.Micros()...) {
		progs[w.Name] = w.MustCompile()
	}
	// "+ c@ ." with an empty stack: the + may underflow, and Quicken
	// fuses it with the c@.
	progs["underflow-at-super"] = &vm.Program{
		Code:    []vm.Instr{{Op: vm.OpAdd}, {Op: vm.OpCFetch}, {Op: vm.OpDot}, {Op: vm.OpHalt}},
		MemSize: 64,
	}
	quickened := 0
	for name, p := range progs {
		q, n := vm.Quicken(p)
		if n == 0 {
			continue
		}
		quickened++
		want := vm.Analyze(p)
		if got := vm.Analyze(q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Analyze(quickened) = %+v, want Analyze(unquickened) = %+v", name, got, want)
		}
		pf, err := vm.Prove(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		qf, qn, err := pf.Quicken()
		if err != nil || qn != n || !vm.Equal(qf.Program(), q) {
			t.Fatalf("%s: Proof.Quicken = (%d sites, %v), want Quicken's %d sites", name, qn, err, n)
		}
		if qf.Facts() != pf.Facts() {
			t.Errorf("%s: Proof.Quicken re-derived the facts instead of carrying them", name)
		}
	}
	if quickened < 3 {
		t.Fatalf("only %d programs quickened; the identity is barely exercised", quickened)
	}
}

// TestProveTranslationReturnsRewriteProof: every workload's rewrite is
// accepted, within the work budget, and comes back with its own proof.
func TestProveTranslationReturnsRewriteProof(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.MustCompile()
		pf, err := vm.Prove(p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r := vm.OptimizeProof(pf)
		if !r.Changed {
			continue
		}
		tp, err := vm.ProveTranslation(pf, r.Prog)
		if err != nil {
			t.Fatalf("%s: rewrite refused: %v", w.Name, err)
		}
		if tp.Program() != r.Prog {
			t.Errorf("%s: proof binds another program than the rewrite", w.Name)
		}
		if !reflect.DeepEqual(tp.Facts(), vm.Analyze(r.Prog)) {
			t.Errorf("%s: proof facts differ from Analyze of the rewrite", w.Name)
		}
		// The public composition agrees with the core.
		if full := vm.Optimize(p); !full.Changed || !vm.Equal(full.Prog, r.Prog) {
			t.Errorf("%s: Optimize and OptimizeProof disagree", w.Name)
		}
	}
}

func TestProveTranslationRefusesUnprovenOriginal(t *testing.T) {
	good := &vm.Program{Code: []vm.Instr{{Op: vm.OpLit, Arg: 1}, {Op: vm.OpDot}, {Op: vm.OpHalt}}, MemSize: 64}
	if _, err := vm.ProveTranslation(&vm.Proof{}, good); err == nil {
		t.Error("zero Proof accepted as an original")
	}
	if r := vm.OptimizeProof(&vm.Proof{}); r.Changed {
		t.Error("zero Proof optimized")
	}
	underflow := &vm.Program{Code: []vm.Instr{{Op: vm.OpDot}, {Op: vm.OpHalt}}, MemSize: 64}
	pf, err := vm.Prove(underflow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.ProveTranslation(pf, underflow); err == nil || !strings.Contains(err.Error(), "depth-proven") {
		t.Errorf("unproven original: err = %v, want a depth-proven refusal", err)
	}
}

// TestCheckTranslationWorkBudget is the validator's denial-of-service
// case: k nested conditionals whose k else-branches all rejoin one
// long shared tail. Each else-branch pair walks the tail again, so
// without a total bound the validation is quadratic (seconds at
// k = 2000); the work budget refuses it in linear time.
func TestCheckTranslationWorkBudget(t *testing.T) {
	const k = 2000
	var b strings.Builder
	b.WriteString("variable v : main\n")
	b.WriteString(strings.Repeat("v @ if\n", k))
	b.WriteString("1 2 + drop\n")
	b.WriteString(strings.Repeat("else 3 drop then\n", k))
	b.WriteString(strings.Repeat("1 2 + drop v @ drop\n", 2*k))
	b.WriteString(";\n")
	p, err := forth.CompileWithOptions(b.String(), forth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := vm.Prove(p)
	if err != nil || !pf.Facts().Proved {
		t.Fatalf("test program is not proven: %v", err)
	}
	r := vm.OptimizeProof(pf)
	if !r.Changed {
		t.Fatal("test program was not rewritten")
	}
	// The fastest of three attempts, so a busy host does not fail it.
	fastest := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err = vm.ProveTranslation(pf, r.Prog)
		fastest = min(fastest, time.Since(start))
		if !errors.Is(err, vm.ErrValidatorBudget) || !strings.Contains(err.Error(), "symbolic steps") {
			t.Fatalf("err = %v, want a work-budget refusal", err)
		}
	}
	if !raceEnabled && fastest > 100*time.Millisecond {
		t.Errorf("refusal took %v, want under 100ms", fastest)
	}
}

// foldedCalleeSources are two generated tiny-workload programs whose
// rewrites the validator once refused ("control diverges: call vs
// halt"). The optimizer inlines h0 into main, folds the result, and in
// a later round inlines main, now short, into the entry stub. Sizing
// main before folding, the validator ended the original's episode at
// the call to main while the rewrite's ran on to halt.
var foldedCalleeSources = []string{
	"variable v0 : h0 or 98 -28 3 / + xor ; : main 21 6 -10 and 6 lshift 37 6 / h0 v0 +! v0 @ . . ;",
	"variable v0 : h0 -8 2 / xor + ; : main 128 -12 1+ 0 rshift 2dup or h0 v0 +! v0 @ . . ;",
}

// TestCheckTranslationFollowsFoldedCallees checks that both rewrites
// validate and that switch runs them to the source's output and stack
// in no more steps.
func TestCheckTranslationFollowsFoldedCallees(t *testing.T) {
	for _, src := range foldedCalleeSources {
		p, err := forth.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		r := vm.Optimize(p)
		if !r.Changed {
			t.Fatalf("%q: not rewritten", src)
		}
		if err := vm.CheckTranslation(p, r.Prog); err != nil {
			t.Fatalf("%q: rewrite refused: %v", src, err)
		}
		ms, mo := interp.NewMachine(p), interp.NewMachine(r.Prog)
		if err := interp.RunSwitch(ms); err != nil {
			t.Fatalf("%q: source run: %v", src, err)
		}
		if err := interp.RunSwitch(mo); err != nil {
			t.Fatalf("%q: rewrite run: %v", src, err)
		}
		if want, got := ms.Snapshot(), mo.Snapshot(); !want.Equal(got) || got.Steps > want.Steps {
			t.Errorf("%q: rewrite ran to %+v, source to %+v", src, got, want)
		}
	}
}

// TestOptimizeNamesOnlyLiveWords checks the rewrite's word table: a
// word whose entry no longer runs, because every call to it was
// inlined, loses its name instead of lending it to the next surviving
// code. So no two names share a pc, and the reproducers' rewrites,
// which inline every word, carry no names at all.
func TestOptimizeNamesOnlyLiveWords(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for i, src := range foldedCalleeSources {
		inputs = append(inputs, input{fmt.Sprintf("foldedCalleeSources[%d]", i), src})
	}
	for _, w := range workloads.Suite() {
		inputs = append(inputs, input{w.Name, w.Source})
	}
	for i, in := range inputs {
		p, err := forth.Compile(in.src)
		if err != nil {
			t.Fatal(err)
		}
		words := vm.Optimize(p).Prog.Words
		if i < len(foldedCalleeSources) && len(words) != 0 {
			t.Errorf("%s: rewrite names %v, want no names", in.name, words)
		}
		byPC := make(map[int]string, len(words))
		for name, pc := range words {
			if other, ok := byPC[pc]; ok {
				t.Errorf("%s: %q and %q both name pc %d", in.name, other, name, pc)
			}
			byPC[pc] = name
		}
	}
}

// callChain returns ": w0 ;", then k words that each call the previous
// one 15 times, then a main that calls the last: every word is
// straight-line, and inlining main in full takes 15^k calls.
func callChain(k int) string {
	var b strings.Builder
	b.WriteString(": w0 ;\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, ": w%d%s ;\n", i, strings.Repeat(fmt.Sprintf(" w%d", i-1), 15))
	}
	fmt.Fprintf(&b, ": main 1 2 + . w%d ;\n", k)
	return b.String()
}

// foldedCallTrees are two call trees of empty words the optimizer
// inlines away in full. The validator follows each call inline, so one
// episode walks the whole tree. The first, 3·5·14 calls, once exceeded
// a fixed per-episode cap and now validates; the second is larger than
// the work budget and is refused with ErrValidatorBudget. No fixed
// bound covers every such tree, so a budget refusal is the documented
// outcome for it, not a bug.
var foldedCallTrees = []string{
	": w5 ; : w6 w5 w5 w5 ; : w7" + strings.Repeat(" w6", 5) + " ; : w8" + strings.Repeat(" w7", 14) + " ; : main w8 ;",
	": w0 ; : w1" + strings.Repeat(" w0", 10) + " ; : w2" + strings.Repeat(" w1", 12) + " ; : w3 w1" +
		strings.Repeat(" w2", 14) + " ; : w4 w3 ; : w5 w4 ; : w6 w5 ; : w7 w6 ; : w8 w7 w7 ; : main w8 ;",
}

// TestCheckTranslationCallChain is the classifier's denial-of-service
// case: a classifier that sizes each callee afresh at every call site
// takes time exponential in k (about 30 s at k = 8). Classified once
// per word, the chain gets its verdict from the work budget at once.
// The folded call trees get theirs as fast: the first is accepted, the
// second refused by the budget.
func TestCheckTranslationCallChain(t *testing.T) {
	errAny := errors.New("any verdict")
	for _, c := range []struct {
		name, src string
		want      error // nil: accepted; ErrValidatorBudget: refused by the budget; errAny: either
	}{
		{"chain8", callChain(8), errAny},
		{"tree0", foldedCallTrees[0], nil},
		{"tree1", foldedCallTrees[1], vm.ErrValidatorBudget},
	} {
		p, err := forth.Compile(c.src)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := vm.Prove(p)
		if err != nil || !pf.Facts().Proved {
			t.Fatalf("%s: test program is not proven: %v", c.name, err)
		}
		r := vm.OptimizeProof(pf)
		if !r.Changed {
			t.Fatalf("%s: test program was not rewritten", c.name)
		}
		// The fastest of three attempts, so a busy host does not fail it.
		fastest := time.Hour
		for i := 0; i < 3; i++ {
			start := time.Now()
			_, err = vm.ProveTranslation(pf, r.Prog)
			fastest = min(fastest, time.Since(start))
		}
		switch {
		case c.want == nil && err != nil:
			t.Errorf("%s: rewrite refused: %v", c.name, err)
		case c.want == vm.ErrValidatorBudget && !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want a refusal wrapping ErrValidatorBudget", c.name, err)
		}
		if !raceEnabled && fastest > 100*time.Millisecond {
			t.Errorf("%s: verdict took %v, want under 100ms", c.name, fastest)
		}
	}
}
