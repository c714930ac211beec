package vm

import (
	"strings"
	"testing"
)

// optProg builds a tiny provable program around the given code.
func optProg(code ...Instr) *Program {
	return &Program{Code: code, MemSize: 64}
}

func mustOptimize(t *testing.T, p *Program) *OptResult {
	t.Helper()
	if err := Verify(p); err != nil {
		t.Fatalf("input does not verify: %v", err)
	}
	if !Analyze(p).Proved {
		t.Fatalf("input is not depth-proven: %v", Analyze(p).Violations)
	}
	r := Optimize(p)
	if err := Verify(r.Prog); err != nil {
		t.Fatalf("optimized program does not verify: %v", err)
	}
	if r.Changed {
		if err := CheckTranslation(p, r.Prog); err != nil {
			t.Fatalf("validator refuses the optimizer's own rewrite: %v", err)
		}
	}
	return r
}

func TestOptimizeConstFold(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 2},
		Instr{Op: OpLit, Arg: 3},
		Instr{Op: OpAdd},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	want := []Instr{{Op: OpLit, Arg: 5}, {Op: OpDot}, {Op: OpHalt}}
	if len(r.Prog.Code) != len(want) {
		t.Fatalf("got %d instrs, want %d: %v", len(r.Prog.Code), len(want), r.Prog.Code)
	}
	for i, ins := range want {
		if r.Prog.Code[i] != ins {
			t.Errorf("instr %d = %v, want %v", i, r.Prog.Code[i], ins)
		}
	}
	if r.PassOps(PassConstFold) == 0 {
		t.Error("constfold ops not counted")
	}
	if r.PassOps(PassDCE) == 0 {
		t.Error("dce ops not counted (fold residue nops)")
	}
}

func TestOptimizeDoesNotFoldDivisionByZero(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 7},
		Instr{Op: OpLit, Arg: 0},
		Instr{Op: OpDiv},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := Optimize(p)
	for _, ins := range r.Prog.Code {
		if ins.Op == OpDiv {
			return // the fault-raising division survives
		}
	}
	t.Fatalf("division by constant zero was folded away: %v", r.Prog.Code)
}

func TestOptimizeBranchFold(t *testing.T) {
	// lit 0 feeding 0branch: branch always taken, both instructions
	// fold, and the never-executed arm becomes unreachable.
	b := NewBuilder()
	b.Lit(0)
	b.BranchZeroTo("skip")
	b.Lit(111)
	b.Emit(OpDot)
	b.Label("skip")
	b.Lit(222)
	b.Emit(OpDot)
	b.Emit(OpHalt)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	for _, ins := range r.Prog.Code {
		if ins.Op == OpBranchZero {
			t.Fatalf("decided branch survives: %v", r.Prog.Code)
		}
		if ins.Op == OpLit && ins.Arg == 111 {
			t.Fatalf("unreachable arm survives: %v", r.Prog.Code)
		}
	}
	if r.PassOps(PassBranchFold) == 0 {
		t.Error("branchfold ops not counted")
	}
}

func TestOptimizeBranchFoldNonErasableFlag(t *testing.T) {
	// The flag is a known constant produced by dup, so the lit that
	// produced it cannot be erased; a not-taken decision must keep a
	// drop for the flag.
	b := NewBuilder()
	b.Lit(7)
	b.Emit(OpDup)
	b.BranchZeroTo("zero") // never taken: dup of 7 is nonzero
	b.Emit(OpDot)
	b.Emit(OpHalt)
	b.Label("zero")
	b.Emit(OpDrop)
	b.Emit(OpHalt)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	for _, ins := range r.Prog.Code {
		if ins.Op == OpBranchZero {
			t.Fatalf("decided branch survives: %v", r.Prog.Code)
		}
	}
}

func TestOptimizeInlinesStraightLineWord(t *testing.T) {
	b := NewBuilder()
	b.Word("double")
	b.Emit(OpDup)
	b.Emit(OpAdd)
	b.Emit(OpExit)
	entry := b.Pos()
	b.Lit(21)
	b.CallTo("double")
	b.Emit(OpDot)
	b.Emit(OpHalt)
	b.SetEntryPos(entry)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	for _, ins := range r.Prog.Code {
		if ins.Op == OpCall {
			t.Fatalf("call to straight-line word survives: %v", r.Prog.Code)
		}
	}
	if r.PassOps(PassInline) == 0 {
		t.Error("inline ops not counted")
	}
	// The callee body becomes unreachable and must be collected, and
	// the inlined dup/add over lit 21 then folds to lit 42.
	if got, want := len(r.Prog.Code), 3; got != want {
		t.Errorf("got %d instrs %v, want %d (lit 42; dot; halt)", got, r.Prog.Code, want)
	}
	if r.Prog.Code[0] != (Instr{Op: OpLit, Arg: 42}) {
		t.Errorf("instr 0 = %v, want lit 42", r.Prog.Code[0])
	}
}

func TestOptimizePeepholeLitAdd(t *testing.T) {
	// An unknown value (from memory) plus a literal becomes lit+.
	p := optProg(
		Instr{Op: OpLit, Arg: 0},
		Instr{Op: OpFetch},
		Instr{Op: OpLit, Arg: 5},
		Instr{Op: OpAdd},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	found := false
	for _, ins := range r.Prog.Code {
		if ins.Op == OpLitAdd && ins.Arg == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lit+ 5 in %v", r.Prog.Code)
	}
	if r.PassOps(PassPeephole) == 0 {
		t.Error("peephole ops not counted")
	}
}

func TestOptimizePeepholeSubToLitAdd(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 0},
		Instr{Op: OpFetch},
		Instr{Op: OpLit, Arg: 5},
		Instr{Op: OpSub},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := mustOptimize(t, p)
	found := false
	for _, ins := range r.Prog.Code {
		if ins.Op == OpLitAdd && ins.Arg == -5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lit+ -5 in %v", r.Prog.Code)
	}
}

func TestOptimizePeepholeCompareInvert(t *testing.T) {
	// "< 0=" must become ">=" with no 0= left behind.
	b := NewBuilder()
	b.Lit(0)
	b.Emit(OpFetch)
	b.Lit(10)
	b.Emit(OpLt)
	b.Emit(OpZeroEq)
	b.BranchZeroTo("done")
	b.Lit(1)
	b.Emit(OpDot)
	b.Label("done")
	b.Emit(OpHalt)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	sawGe, sawZeroEq := false, false
	for _, ins := range r.Prog.Code {
		if ins.Op == OpGe {
			sawGe = true
		}
		if ins.Op == OpZeroEq {
			sawZeroEq = true
		}
	}
	if !sawGe || sawZeroEq {
		t.Fatalf("compare inversion missing (ge=%v zeroEq=%v): %v", sawGe, sawZeroEq, r.Prog.Code)
	}
}

func TestOptimizeDCERemovesUnreachable(t *testing.T) {
	p := optProg(
		Instr{Op: OpHalt},
		Instr{Op: OpLit, Arg: 9}, // unreachable
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	if len(r.Prog.Code) != 1 || r.Prog.Code[0].Op != OpHalt {
		t.Fatalf("got %v, want a single halt", r.Prog.Code)
	}
	if r.PassOps(PassDCE) == 0 {
		t.Error("dce ops not counted")
	}
	if r.Fate[1] != FateDead || r.Fate[2] != FateDead {
		t.Errorf("fates = %v, want dead at pcs 1-3", r.Fate)
	}
	if r.NewPC[0] != 0 || r.NewPC[1] != -1 {
		t.Errorf("newpc = %v", r.NewPC)
	}
}

func TestOptimizeRefusesUnprovenProgram(t *testing.T) {
	// Unbounded recursion: Analyze cannot prove depth bounds, so the
	// optimizer must decline (the validator could not certify any
	// rewrite of it either). This mirrors the gray workload, whose
	// recursive descent keeps it unoptimized by design.
	b := NewBuilder()
	b.Word("rec")
	b.Emit(OpOnePlus)
	b.CallTo("rec")
	b.Emit(OpExit)
	entry := b.Pos()
	b.Lit(0)
	b.CallTo("rec")
	b.Emit(OpHalt)
	b.SetEntryPos(entry)
	p := b.MustBuild()
	if Analyze(p).Proved {
		t.Fatal("test premise broken: recursive program proved")
	}
	r := Optimize(p)
	if r.Changed {
		t.Fatal("optimizer rewrote an unproven program")
	}
	if r.Prog != p {
		t.Fatal("unchanged result must return the input program")
	}
}

func TestOptimizeIsTotalOnGarbage(t *testing.T) {
	progs := []*Program{
		nil2prog(),
		{},
		{Code: []Instr{{Op: Opcode(200)}}},
		{Code: []Instr{{Op: OpAdd}, {Op: OpHalt}}},                    // underflows; unprovable
		{Code: []Instr{{Op: OpHalt}}, Words: map[string]int{"w": 99}}, // name past the code
	}
	for i, p := range progs {
		r := Optimize(p)
		if r.Changed {
			t.Errorf("program %d: garbage was rewritten", i)
		}
	}
}

func nil2prog() *Program { return &Program{Code: []Instr{{Op: OpLit, Arg: 1}}} }

func TestOptimizeFactsNotWeaker(t *testing.T) {
	// Inlining removes call/exit pairs, so the proven return-stack
	// bound must shrink (and the data bound must never grow).
	b := NewBuilder()
	b.Word("bump")
	b.Emit(OpOnePlus)
	b.Emit(OpExit)
	entry := b.Pos()
	b.Lit(0)
	b.Label("loop")
	b.CallTo("bump")
	b.Emit(OpDup)
	b.Lit(10)
	b.Emit(OpLt)
	b.BranchZeroTo("done")
	b.BranchTo("loop")
	b.Label("done")
	b.Emit(OpDot)
	b.Emit(OpHalt)
	b.SetEntryPos(entry)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	fo, ft := Analyze(p), Analyze(r.Prog)
	if !fo.Proved || !ft.Proved {
		t.Fatalf("facts not proved: orig=%v opt=%v", fo.Proved, ft.Proved)
	}
	if ft.MaxDepth > fo.MaxDepth {
		t.Errorf("data depth grew: %d -> %d", fo.MaxDepth, ft.MaxDepth)
	}
	if ft.MaxRDepth >= fo.MaxRDepth {
		t.Errorf("return depth did not shrink: %d -> %d", fo.MaxRDepth, ft.MaxRDepth)
	}
}

func TestOptimizeQuickenedInputUsesUnquickenedSource(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 2},
		Instr{Op: OpLit, Arg: 3},
		Instr{Op: OpAdd},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	q, _ := Quicken(p)
	r := Optimize(q)
	if !r.Changed {
		t.Fatal("expected a rewrite of the quickened program")
	}
	for _, ins := range r.Source.Code {
		if IsSuper(ins.Op) {
			t.Fatalf("Source contains a superinstruction: %v", r.Source.Code)
		}
	}
	if r.Prog.Code[0] != (Instr{Op: OpLit, Arg: 5}) {
		t.Errorf("instr 0 = %v, want lit 5", r.Prog.Code[0])
	}
}

func TestOptimizedProgramEncodeRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Word("double")
	b.Emit(OpDup)
	b.Emit(OpAdd)
	b.Emit(OpExit)
	entry := b.Pos()
	b.Lit(21)
	b.CallTo("double")
	b.Emit(OpDot)
	b.Emit(OpHalt)
	b.SetEntryPos(entry)
	p := b.MustBuild()
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	img, err := Encode(r.Prog)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(img)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !Equal(r.Prog, back) {
		t.Fatal("optimized program does not round-trip through Encode/Decode")
	}
}

func TestDisassembleSuperOperands(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 8},
		Instr{Op: OpFetch},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	q, n := Quicken(p)
	if n == 0 || !IsSuper(q.Code[0].Op) {
		t.Skip("quickening did not fuse lit/fetch; expansion rendering untestable here")
	}
	out := Disassemble(q)
	if !strings.Contains(out, "= lit 8 @") {
		t.Errorf("super expansion comment missing:\n%s", out)
	}
}

func TestDisassembleOptAnnotations(t *testing.T) {
	p := optProg(
		Instr{Op: OpLit, Arg: 2},
		Instr{Op: OpLit, Arg: 3},
		Instr{Op: OpAdd},
		Instr{Op: OpDot},
		Instr{Op: OpHalt},
	)
	r := mustOptimize(t, p)
	if !r.Changed {
		t.Fatal("expected a rewrite")
	}
	out := DisassembleOpt(r)
	for _, want := range []string{"folded", "rewritten -> 0", "kept -> "} {
		if !strings.Contains(out, want) {
			t.Errorf("annotation %q missing:\n%s", want, out)
		}
	}

	// Unchanged results degenerate to the plain listing.
	rec := Optimize(&Program{Code: []Instr{{Op: OpAdd}, {Op: OpHalt}}})
	if got := DisassembleOpt(rec); got != Disassemble(rec.Source) {
		t.Errorf("unchanged listing should be plain:\n%s", got)
	}
}

func TestOptPassAndPCFateStrings(t *testing.T) {
	for p := OptPass(0); p < NumOptPasses; p++ {
		if s := p.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("pass %d has no label", p)
		}
	}
	if OptPass(NumOptPasses).String() != "pass(?)" {
		t.Error("out-of-range pass label")
	}
	for f := PCFate(0); f < NumPCFates; f++ {
		if s := f.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("fate %d has no label", f)
		}
	}
}
