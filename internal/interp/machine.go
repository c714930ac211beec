// Package interp provides baseline interpreters for the virtual stack
// machine of internal/vm, one per instruction-dispatch technique the
// paper compares in §2.1:
//
//   - Switch: one giant switch inside a loop (the paper's Fig. 2);
//   - Token: a table of functions indexed by opcode, the paper's
//     "direct call threading" (Fig. 3);
//   - Threaded: the code is pre-translated to a sequence of function
//     values, the closest Go analog of direct threading (Fig. 1/8 —
//     Go has no computed goto, so the jump through the instruction
//     stream is a call through a function value).
//
// All interpreters share the Machine state and have identical
// semantics; differential tests in this package and the caching
// engines rely on that. None of them cache stack items in registers:
// they are the "no stack caching" baseline against which
// internal/dyncache and internal/statcache are measured.
package interp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"stackcache/internal/vm"
)

// Default capacity limits. Generous for the workloads in this
// repository while still catching runaway programs.
const (
	DefaultStackCap  = 4096
	DefaultRStackCap = 4096
	DefaultMaxSteps  = 1 << 32
)

// Machine is the mutable state of one virtual machine execution: the
// two stacks, data memory, the instruction pointer and the output
// stream. All interpreters and caching engines operate on a Machine.
type Machine struct {
	Prog *vm.Program

	Stack []vm.Cell // data stack; Stack[SP-1] is the top
	SP    int
	RSt   []vm.Cell // return stack; RSt[RP-1] is the top
	RP    int
	Mem   []byte
	PC    int

	// Out receives everything the program prints (OpEmit, OpDot,
	// OpType).
	Out bytes.Buffer

	// MaxSteps bounds the number of executed instructions; exceeding
	// it is an error. Zero means DefaultMaxSteps.
	MaxSteps int64

	// MaxOut bounds the bytes a program may print to Out; exceeding it
	// is an error. Zero means unlimited. Services running hostile
	// programs set it so a single run cannot materialize an arbitrarily
	// large output buffer.
	MaxOut int

	// Steps is the number of instructions executed so far.
	Steps int64

	// Facts, when non-nil, holds the abstract-interpretation result for
	// Prog (vm.Analyze). Engines with a check-elided path consult
	// ElideChecks to decide whether the stack bounds checks may be
	// skipped for this run. Setting Facts to vm.NoFacts (never Proved)
	// pins an execution to the checked path regardless of what any
	// engine-level cache knows.
	Facts *vm.Facts
}

// NewMachine prepares a machine to run p from its entry point.
func NewMachine(p *vm.Program) *Machine {
	m := &Machine{
		Prog:  p,
		Stack: make([]vm.Cell, DefaultStackCap),
		RSt:   make([]vm.Cell, DefaultRStackCap),
		Mem:   make([]byte, p.MemSize),
		PC:    p.Entry,
	}
	copy(m.Mem, p.Data)
	return m
}

// Reset returns the machine to its initial state so the same program
// can be run again.
func (m *Machine) Reset() {
	m.SP, m.RP = 0, 0
	m.PC = m.Prog.Entry
	m.Steps = 0
	m.Out.Reset()
	for i := range m.Mem {
		m.Mem[i] = 0
	}
	copy(m.Mem, m.Prog.Data)
}

// ElideChecks reports whether an engine may skip the per-dispatch
// data- and return-stack underflow/overflow checks for this run. The
// analysis proves depth bounds relative to the entry state (depth 0 at
// Prog.Entry); seeding the stack with d0 initial args shifts every
// reachable depth uniformly by +d0, so underflow proofs transfer
// as-is, and the overflow bound is re-checked here against the actual
// room left above the seeded cells. Runs that start anywhere else, or
// on machines with too little headroom, keep the dynamic checks — the
// gate degrades to the checked path, never to unsoundness. Only the
// stack bounds checks are covered: pc-range, step-limit, invalid
// opcode, division, memory, and output checks stay dynamic always.
func (m *Machine) ElideChecks() bool {
	f := m.Facts
	return f != nil && f.Proved && m.PC == m.Prog.Entry &&
		m.SP+f.MaxDepth <= len(m.Stack) && m.RP+f.MaxRDepth <= len(m.RSt)
}

// RuntimeError is an execution failure annotated with the program
// counter where it occurred.
type RuntimeError struct {
	PC  int
	Op  vm.Opcode
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm runtime error at pc %d (%s): %s", e.PC, e.Op, e.Msg)
}

func (m *Machine) fail(op vm.Opcode, msg string) error {
	return &RuntimeError{PC: m.PC, Op: op, Msg: msg}
}

// MsgPCRange is the message every engine uses when the program counter
// leaves the code area — by falling off an unterminated program, or
// through a corrupt return address popped by OpExit. There is no
// current instruction at such a pc, so the error's Op is OpNop.
const MsgPCRange = "program counter out of range"

// PCError builds the out-of-range-pc error. All engines (including the
// caching engines in other packages) report this identical error class
// so differential tests can compare malformed-program behaviour.
func PCError(pc int) *RuntimeError {
	return &RuntimeError{PC: pc, Op: vm.OpNop, Msg: MsgPCRange}
}

// Snapshot captures the observable final state of an execution for
// differential testing: stack contents, output, and memory hash.
type Snapshot struct {
	Stack  []vm.Cell
	RStack []vm.Cell
	Output string
	Mem    []byte
	Steps  int64
}

// Snapshot returns the machine's observable state.
func (m *Machine) Snapshot() Snapshot {
	return Snapshot{
		Stack:  append([]vm.Cell(nil), m.Stack[:m.SP]...),
		RStack: append([]vm.Cell(nil), m.RSt[:m.RP]...),
		Output: m.Out.String(),
		Mem:    append([]byte(nil), m.Mem...),
		Steps:  m.Steps,
	}
}

// Equal reports whether two snapshots describe the same observable
// state (step counts may differ between engines that eliminate
// instructions and are not compared).
func (s Snapshot) Equal(t Snapshot) bool {
	if len(s.Stack) != len(t.Stack) || len(s.RStack) != len(t.RStack) ||
		s.Output != t.Output || !bytes.Equal(s.Mem, t.Mem) {
		return false
	}
	for i := range s.Stack {
		if s.Stack[i] != t.Stack[i] {
			return false
		}
	}
	for i := range s.RStack {
		if s.RStack[i] != t.RStack[i] {
			return false
		}
	}
	return true
}

// CellAt loads the cell at byte address addr. The bound is written as
// a subtraction so that an addr near MaxInt64 cannot wrap negative and
// sneak past the check.
func (m *Machine) CellAt(addr vm.Cell) (vm.Cell, bool) {
	if addr < 0 || addr > vm.Cell(len(m.Mem))-vm.CellSize {
		return 0, false
	}
	return vm.Cell(binary.LittleEndian.Uint64(m.Mem[addr:])), true
}

// SetCellAt stores x at byte address addr.
func (m *Machine) SetCellAt(addr, x vm.Cell) bool {
	if addr < 0 || addr > vm.Cell(len(m.Mem))-vm.CellSize {
		return false
	}
	binary.LittleEndian.PutUint64(m.Mem[addr:], uint64(x))
	return true
}

// RangeOK reports whether the byte range [addr, addr+n) lies inside
// memory, without the addr+n overflow the naive comparison has for
// values near MaxInt64.
func (m *Machine) RangeOK(addr, n vm.Cell) bool {
	return n >= 0 && addr >= 0 && addr <= vm.Cell(len(m.Mem))-n
}

// ByteAt loads the byte at addr.
func (m *Machine) ByteAt(addr vm.Cell) (byte, bool) {
	if addr < 0 || addr >= vm.Cell(len(m.Mem)) {
		return 0, false
	}
	return m.Mem[addr], true
}

// SetByteAt stores the low byte of x at addr.
func (m *Machine) SetByteAt(addr, x vm.Cell) bool {
	if addr < 0 || addr >= vm.Cell(len(m.Mem)) {
		return false
	}
	m.Mem[addr] = byte(x)
	return true
}

// writeDot prints n in Forth's ". " format: decimal followed by a
// space.
func (m *Machine) writeDot(n vm.Cell) {
	m.Out.WriteString(strconv.FormatInt(n, 10))
	m.Out.WriteByte(' ')
}

// MsgOutputLimit is the message every engine uses when a program's
// output exceeds the machine's MaxOut budget. The service layer
// classifies these as limit errors, like MsgStepLimit.
const MsgOutputLimit = "output limit exceeded"

// checkOut enforces MaxOut after an output-writing instruction (emit,
// dot, type). The budget can be overshot by at most that one write; a
// caller needing a hard cap on shipped bytes truncates Out afterwards.
func (m *Machine) checkOut(op vm.Opcode) error {
	if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
		return m.fail(op, MsgOutputLimit)
	}
	return nil
}

// FloorDiv is Forth's floored division; the quotient rounds toward
// negative infinity. The definition lives in vm.FloorDiv so the static
// optimizer and translation validator fold constants with exactly the
// arithmetic the dispatch loops use.
func FloorDiv(a, b vm.Cell) vm.Cell { return vm.FloorDiv(a, b) }

// FloorMod is the remainder matching FloorDiv; it has the sign of the
// divisor.
func FloorMod(a, b vm.Cell) vm.Cell { return vm.FloorMod(a, b) }

func (m *Machine) maxSteps() int64 {
	if m.MaxSteps > 0 {
		return m.MaxSteps
	}
	return DefaultMaxSteps
}
