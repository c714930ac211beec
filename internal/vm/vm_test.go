package vm

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeNamesComplete(t *testing.T) {
	seen := map[string]Opcode{}
	for op := Opcode(0); op < NumOpcodes; op++ {
		name := op.String()
		if name == "" {
			t.Errorf("opcode %d has empty name", op)
		}
		if strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no registered name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, name)
		}
		seen[name] = op
	}
}

func TestOpcodeByNameRoundTrip(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		got, ok := OpcodeByName(op.String())
		if !ok {
			t.Fatalf("OpcodeByName(%q) not found", op.String())
		}
		if got != op {
			t.Errorf("OpcodeByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if _, ok := OpcodeByName("no-such-op"); ok {
		t.Error("OpcodeByName accepted an unknown name")
	}
}

func TestOpcodeValid(t *testing.T) {
	if !OpAdd.Valid() {
		t.Error("OpAdd should be valid")
	}
	if NumOpcodes.Valid() {
		t.Error("NumOpcodes should be invalid")
	}
	if got := Opcode(200).String(); got != "op(200)" {
		t.Errorf("invalid opcode String = %q", got)
	}
}

func TestEffectTableSanity(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		e := EffectOf(op)
		if e.In < 0 || e.Out < 0 || e.RIn < 0 || e.ROut < 0 {
			t.Errorf("%v: negative effect %+v", op, e)
		}
		if e.Map != nil {
			if len(e.Map) != e.Out {
				t.Errorf("%v: Map length %d != Out %d", op, len(e.Map), e.Out)
			}
			for k, src := range e.Map {
				if src < 0 || src >= e.In {
					t.Errorf("%v: Map[%d]=%d out of input range [0,%d)", op, k, src, e.In)
				}
			}
			if e.Control {
				t.Errorf("%v: manipulation instruction marked Control", op)
			}
			if e.RIn != 0 || e.ROut != 0 {
				t.Errorf("%v: manipulation instruction touches return stack", op)
			}
		}
	}
}

func TestEffectManipMaps(t *testing.T) {
	// Verify the Map convention (index 0 = top of stack) against the
	// canonical Forth semantics for every manipulation word.
	cases := []struct {
		op   Opcode
		in   []Cell // bottom..top
		want []Cell // bottom..top
	}{
		{OpDup, []Cell{7}, []Cell{7, 7}},
		{OpDrop, []Cell{7}, []Cell{}},
		{OpSwap, []Cell{1, 2}, []Cell{2, 1}},
		{OpOver, []Cell{1, 2}, []Cell{1, 2, 1}},
		{OpRot, []Cell{1, 2, 3}, []Cell{2, 3, 1}},
		{OpMinusRot, []Cell{1, 2, 3}, []Cell{3, 1, 2}},
		{OpNip, []Cell{1, 2}, []Cell{2}},
		{OpTuck, []Cell{1, 2}, []Cell{2, 1, 2}},
		{OpTwoDup, []Cell{1, 2}, []Cell{1, 2, 1, 2}},
		{OpTwoDrop, []Cell{1, 2}, []Cell{}},
	}
	for _, c := range cases {
		e := EffectOf(c.op)
		if !e.IsManip() {
			t.Errorf("%v: expected manip", c.op)
			continue
		}
		if len(c.in) != e.In {
			t.Fatalf("%v: test input length %d != In %d", c.op, len(c.in), e.In)
		}
		// Apply Map: output k (0=top) copies input Map[k] (0=top).
		out := make([]Cell, e.Out)
		for k := 0; k < e.Out; k++ {
			src := e.Map[k]
			out[e.Out-1-k] = c.in[len(c.in)-1-src]
		}
		if len(out) != len(c.want) {
			t.Errorf("%v: got %v want %v", c.op, out, c.want)
			continue
		}
		for i := range out {
			if out[i] != c.want[i] {
				t.Errorf("%v: got %v want %v", c.op, out, c.want)
				break
			}
		}
	}
}

func TestEffectControlClassification(t *testing.T) {
	control := []Opcode{OpBranch, OpBranchZero, OpCall, OpExit, OpHalt, OpLoop, OpPlusLoop}
	isControl := map[Opcode]bool{}
	for _, op := range control {
		isControl[op] = true
	}
	for op := Opcode(0); op < NumOpcodes; op++ {
		if EffectOf(op).Control != isControl[op] {
			t.Errorf("%v: Control = %v, want %v", op, EffectOf(op).Control, isControl[op])
		}
	}
}

func TestMaxInOut(t *testing.T) {
	if MaxIn != 3 {
		t.Errorf("MaxIn = %d, want 3 (rot)", MaxIn)
	}
	if MaxOut != 4 {
		t.Errorf("MaxOut = %d, want 4 (2dup)", MaxOut)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder()
	b.Word("main")
	b.Lit(2)
	b.Lit(3)
	b.Emit(OpAdd)
	b.Emit(OpHalt)
	b.SetEntry("word:main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 4 {
		t.Fatalf("code length = %d, want 4", len(p.Code))
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
	if p.Code[0] != (Instr{Op: OpLit, Arg: 2}) {
		t.Errorf("code[0] = %v", p.Code[0])
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder()
	b.BranchTo("end")
	b.Emit(OpNop)
	b.Label("end")
	b.Emit(OpHalt)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Arg != 2 {
		t.Errorf("forward branch target = %d, want 2", p.Code[0].Arg)
	}
}

func TestBuilderBackwardReference(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.Emit(OpNop)
	b.BranchTo("top")
	b.Emit(OpHalt)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Arg != 0 {
		t.Errorf("backward branch target = %d, want 0", p.Code[1].Arg)
	}
}

func TestBuilderUnresolvedLabel(t *testing.T) {
	b := NewBuilder()
	b.BranchTo("nowhere")
	b.Emit(OpHalt)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for unresolved label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
	b.Emit(OpHalt)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for duplicate label")
	}
}

func TestBuilderDuplicateWord(t *testing.T) {
	b := NewBuilder()
	b.Word("w")
	b.Emit(OpExit)
	b.Word("w")
	b.Emit(OpExit)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for duplicate word")
	}
}

func TestBuilderCalls(t *testing.T) {
	b := NewBuilder()
	b.Word("double")
	b.Emit(OpDup)
	b.Emit(OpAdd)
	b.Emit(OpExit)
	b.Word("main")
	b.Lit(21)
	b.CallTo("double")
	b.Emit(OpHalt)
	b.SetEntry("word:main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 3 {
		t.Errorf("entry = %d, want 3", p.Entry)
	}
	if p.Code[4].Op != OpCall || p.Code[4].Arg != 0 {
		t.Errorf("call instr = %v", p.Code[4])
	}
	if p.WordAt(0) != "double" {
		t.Errorf("WordAt(0) = %q", p.WordAt(0))
	}
	names := p.WordNames()
	if len(names) != 2 || names[0] != "double" || names[1] != "main" {
		t.Errorf("WordNames = %v", names)
	}
}

func TestBuilderAlloc(t *testing.T) {
	b := NewBuilder()
	a1 := b.Alloc(8)
	a2 := b.AllocData([]byte("hi"))
	a3 := b.Alloc(4)
	if a1 != 0 || a2 != 8 || a3 != 10 {
		t.Errorf("addresses = %d %d %d", a1, a2, a3)
	}
	if b.MemSize() != 14 {
		t.Errorf("MemSize = %d, want 14", b.MemSize())
	}
	b.Emit(OpHalt)
	p := b.MustBuild()
	if string(p.Data[8:10]) != "hi" {
		t.Errorf("data = %q", p.Data)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{}},
		{"bad entry", Program{Code: []Instr{{Op: OpHalt}}, Entry: 5}},
		{"bad opcode", Program{Code: []Instr{{Op: Opcode(250)}}}},
		{"bad target", Program{Code: []Instr{{Op: OpBranch, Arg: 99}}}},
		{"negative target", Program{Code: []Instr{{Op: OpCall, Arg: -1}}}},
		{"data too big", Program{Code: []Instr{{Op: OpHalt}}, Data: []byte{1, 2}, MemSize: 1}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: OpAdd}, "+"},
		{Instr{Op: OpLit, Arg: 42}, "lit 42"},
		{Instr{Op: OpBranch, Arg: 7}, "branch ->7"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.ins, got, c.want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder()
	b.Word("sq")
	b.Emit(OpDup)
	b.Emit(OpMul)
	b.Emit(OpExit)
	b.Word("main")
	b.Lit(5)
	b.CallTo("sq")
	b.Emit(OpHalt)
	b.SetEntry("word:main")
	p := b.MustBuild()
	out := Disassemble(p)
	for _, want := range []string{"sq:", "main:", "call sq", "lit 5", "dup"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestBranchTargets(t *testing.T) {
	b := NewBuilder()
	b.Word("main")
	b.Lit(1)
	b.BranchZeroTo("else") // pc 1, fall-through pc 2 is a target
	b.Lit(10)
	b.BranchTo("end")
	b.Label("else")
	b.Lit(20)
	b.Label("end")
	b.Emit(OpHalt)
	b.SetEntry("word:main")
	p := b.MustBuild()
	targets := p.BranchTargets()
	for _, pc := range []int{0, 2, 4, 5} {
		if !targets[pc] {
			t.Errorf("pc %d should be a branch target; got %v", pc, targets)
		}
	}
	if targets[3] {
		t.Errorf("pc 3 should not be a target")
	}
}

func TestBranchTargetsOutOfRange(t *testing.T) {
	// An invalid program's targets and entry may lie outside the code:
	// they are left out, and the disassembler still renders it.
	p := &Program{Code: []Instr{
		{Op: OpBranchZero, Arg: 7},
		{Op: OpBranch, Arg: -3},
		{Op: OpHalt},
	}, Entry: 9}
	targets := p.BranchTargets()
	if want := []bool{false, true, false}; !slices.Equal(targets, want) {
		t.Errorf("targets %v, want %v", targets, want)
	}
	if out := Disassemble(p); !strings.Contains(out, "0branch ->7") {
		t.Errorf("disassembly lacks the out-of-range branch:\n%s", out)
	}
}

func TestProgramWordAtMissing(t *testing.T) {
	p := &Program{Code: []Instr{{Op: OpHalt}}}
	if got := p.WordAt(0); got != "" {
		t.Errorf("WordAt on wordless program = %q", got)
	}
}

func TestBuilderPropertyTargetsAlwaysValid(t *testing.T) {
	// Property: any program built through the Builder with resolved
	// labels validates.
	f := func(nops uint8) bool {
		b := NewBuilder()
		b.Label("top")
		for i := 0; i < int(nops%50)+1; i++ {
			b.Emit(OpNop)
		}
		b.BranchTo("top")
		b.Emit(OpHalt)
		b.SetEntry("top")
		_, err := b.Build()
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleWithFacts(t *testing.T) {
	b := NewBuilder()
	b.Word("main")
	b.Lit(2)
	b.Lit(3)
	b.Emit(OpAdd)
	b.Emit(OpHalt)
	b.Emit(OpDrop) // after halt: unreachable
	b.SetEntry("word:main")
	p := b.MustBuild()
	f := Analyze(p)
	if !f.Proved {
		t.Fatalf("straight-line program unproven: %v", f.Violations)
	}
	out := DisassembleWith(p, f)
	for _, want := range []string{"; depth 0", "; depth 1", "; depth 2", "; unreachable"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated disassembly missing %q:\n%s", want, out)
		}
	}
	// Facts for a different program are ignored, not misapplied.
	if got := DisassembleWith(p, &Facts{}); got != Disassemble(p) {
		t.Errorf("mismatched facts not ignored:\n%s", got)
	}
}
