// Package gendyn4 is a second generated configuration (4 registers,
// overflow followup 3), checked in to prove the generator handles more
// than one shape; see internal/gendyn for the primary one.
package gendyn4

import (
	"bytes"
	"os"
	"testing"

	"stackcache/internal/gen"
	"stackcache/internal/interp"
	"stackcache/internal/workloads"
)

func TestGeneratedSourceIsCurrent(t *testing.T) {
	want, err := gen.DynamicInterp("gendyn4", NRegs, OverflowTo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("gendyn.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("gendyn.go is stale; regenerate with: " +
			"go run ./cmd/gencache -pkg gendyn4 -regs 4 -overflow 3 -o internal/gendyn4/gendyn.go")
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
			t.Fatalf("%s gendyn4: %v", w.Name, err)
		}
		if !ref.Snapshot().Equal(m.Snapshot()) {
			t.Errorf("%s: 4-register generated interpreter disagrees with baseline", w.Name)
		}
	}
}
