package gendyn

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"stackcache/internal/forth"
	"stackcache/internal/gen"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// TestGeneratedSourceIsCurrent regenerates the interpreter and
// compares it with the checked-in file, guarding against stale
// generated code.
func TestGeneratedSourceIsCurrent(t *testing.T) {
	want, err := gen.DynamicInterp("gendyn", NRegs, OverflowTo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("gendyn.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("gendyn.go is stale; regenerate with: " +
			"go run ./cmd/gencache -pkg gendyn -regs 6 -overflow 5 -o internal/gendyn/gendyn.go")
	}
}

// TestMatchesBaselineOnAllWorkloads runs the full-size workloads, not
// just the micros: their deep stacks drive the overflow spill
// transitions, where the Go 1.24 optimizer once miscompiled generated
// code (see the generator's function-scoped temporaries).
func TestMatchesBaselineOnAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.MustCompile()
		ref, err := interp.Run(p, interp.EngineSwitch)
		if err != nil {
			t.Fatalf("%s baseline: %v", w.Name, err)
		}
		m := interp.NewMachine(p)
		if err := Run(m); err != nil {
			t.Fatalf("%s gendyn: %v", w.Name, err)
		}
		if !ref.Snapshot().Equal(m.Snapshot()) {
			t.Errorf("%s: generated interpreter disagrees with baseline\nwant %q\ngot  %q",
				w.Name, ref.Out.String(), m.Out.String())
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"div-zero", `: main 1 0 / . ;`, "division by zero"},
		{"bad-fetch", `: main -8 @ . ;`, "memory access out of range"},
		{"bad-store", `: main 1 -8 ! ;`, "memory access out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := forth.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			m := interp.NewMachine(p)
			err = Run(m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	b := vm.NewBuilder()
	b.Label("spin")
	b.BranchTo("spin")
	p := b.MustBuild()
	m := interp.NewMachine(p)
	m.MaxSteps = 1000
	if err := Run(m); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v", err)
	}
}

func TestStackUnderflowDetected(t *testing.T) {
	b := vm.NewBuilder()
	b.Emit(vm.OpAdd)
	b.Emit(vm.OpHalt)
	p := b.MustBuild()
	m := interp.NewMachine(p)
	if err := Run(m); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("err = %v", err)
	}
}

// TestPropertyMatchesBaseline: the generated interpreter agrees with
// the switch interpreter on random programs.
func TestPropertyMatchesBaseline(t *testing.T) {
	safeOps := []vm.Opcode{
		vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpMin, vm.OpMax, vm.OpXor,
		vm.OpDup, vm.OpDrop, vm.OpSwap, vm.OpOver, vm.OpRot, vm.OpTuck,
		vm.OpTwoDup, vm.OpTwoDrop, vm.OpNip, vm.OpMinusRot,
		vm.OpOnePlus, vm.OpNegate, vm.OpZeroEq, vm.OpToR, vm.OpRFrom,
		vm.OpAbs, vm.OpInvert, vm.OpULt, vm.OpDepth,
	}
	f := func(lits []int64, choices []uint8) bool {
		b := vm.NewBuilder()
		depth, rdepth := 0, 0
		for i, v := range lits {
			if i >= 10 {
				break
			}
			b.Lit(vm.Cell(v))
			depth++
		}
		for depth < 4 {
			b.Lit(1)
			depth++
		}
		for _, ch := range choices {
			op := safeOps[int(ch)%len(safeOps)]
			eff := vm.EffectOf(op)
			if depth < eff.In || eff.RIn > rdepth || depth+eff.NetEffect() > 40 {
				continue
			}
			b.Emit(op)
			depth += eff.NetEffect()
			rdepth += eff.ROut - eff.RIn
		}
		for ; rdepth > 0; rdepth-- {
			b.Emit(vm.OpRFrom)
		}
		b.Emit(vm.OpHalt)
		p, err := b.Build()
		if err != nil {
			return false
		}
		ref, err := interp.Run(p, interp.EngineSwitch)
		if err != nil {
			return false
		}
		m := interp.NewMachine(p)
		if err := Run(m); err != nil {
			return false
		}
		return ref.Snapshot().Equal(m.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct{ regs, overflow int }{
		{2, 1}, {20, 5}, {6, 0}, {6, 7},
	} {
		if _, err := gen.DynamicInterp("x", tc.regs, tc.overflow); err == nil {
			t.Errorf("config %+v accepted", tc)
		}
	}
}

func TestGeneratorOtherConfigsFormat(t *testing.T) {
	// Every supported configuration must generate formatted code (the
	// generator pipes through go/format, which parses it).
	for _, tc := range []struct{ regs, overflow int }{
		{4, 1}, {4, 4}, {8, 5}, {16, 16},
	} {
		if _, err := gen.DynamicInterp("x", tc.regs, tc.overflow); err != nil {
			t.Errorf("config %+v: %v", tc, err)
		}
	}
}
