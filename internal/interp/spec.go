package interp

import (
	"fmt"

	"stackcache/internal/vm"
)

// ExecSpec describes one execution request independently of the engine
// that will run it: the resource budgets and the program's inputs. It
// replaces the positional-knob proliferation the Run*/RunOn/*WithLimit
// entry points grew — every engine consumer (the service layer, the
// CLIs, the differential tests) builds an ExecSpec and applies it to a
// machine with ApplySpec before handing the machine to an engine.
//
// The zero value is the historical default: default step budget,
// unlimited output, empty initial stack, the program's own data image.
type ExecSpec struct {
	// MaxSteps bounds executed instructions; <= 0 means
	// DefaultMaxSteps.
	MaxSteps int64

	// MaxOut bounds the bytes the program may print; <= 0 means
	// unlimited.
	MaxOut int

	// Args is the initial data stack, bottom first: Args[len-1] starts
	// on top. This is how a compiled-once program receives per-request
	// inputs without recompilation.
	Args []vm.Cell

	// Mem, when non-empty, is overlaid over the program's data image
	// starting at address 0 (the rest of memory keeps the image). It
	// must fit in the program's memory.
	Mem []byte

	// Facts, when non-nil, is the analysis result for the program this
	// spec will run (vm.Analyze). Callers that analyze once per cached
	// program (the service layer) pass it here; when nil, the engines
	// with a check-elided path (token, threaded, traced, compiled) look
	// the facts up in their per-program analysis cache. The other
	// engines always run checked and ignore it. Pass vm.NoFacts to
	// force the checked path.
	Facts *vm.Facts
}

// ApplySpec configures a machine with the spec's budgets and inputs.
// The machine must be in its pristine post-NewMachine/Reset/Rebind
// state; ApplySpec then seeds the initial stack and memory overlay.
// It fails (without partial effects on the stack) when the spec does
// not fit the machine.
func (m *Machine) ApplySpec(s ExecSpec) error {
	if len(s.Args) > len(m.Stack) {
		return fmt.Errorf("interp: %d initial stack cells exceed the stack capacity %d",
			len(s.Args), len(m.Stack))
	}
	if len(s.Mem) > len(m.Mem) {
		return fmt.Errorf("interp: %d-byte memory overlay exceeds the program's %d-byte memory",
			len(s.Mem), len(m.Mem))
	}
	if s.MaxSteps > 0 {
		m.MaxSteps = s.MaxSteps
	} else {
		m.MaxSteps = 0
	}
	if s.MaxOut > 0 {
		m.MaxOut = s.MaxOut
	} else {
		m.MaxOut = 0
	}
	copy(m.Stack, s.Args)
	m.SP = len(s.Args)
	copy(m.Mem, s.Mem)
	if s.Facts != nil {
		m.Facts = s.Facts
	}
	return nil
}
