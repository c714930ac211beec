package vm

import (
	"fmt"
	"sort"
)

// Cell is the machine word of the virtual machine: a 64-bit signed
// integer, as in most modern Forth systems.
type Cell = int64

// CellSize is the size of a cell in the byte-addressed memory.
const CellSize = 8

// Instr is one fixed-size virtual machine instruction: an opcode and
// one immediate argument. Instructions without an immediate leave Arg
// zero. Keeping instructions fixed-size mirrors the paper's threaded
// code where dispatch can be overlapped with execution.
type Instr struct {
	Op  Opcode
	Arg Cell
}

// String renders the instruction in disassembly form.
func (i Instr) String() string {
	switch EffectOf(i.Op).Arg {
	case ArgValue:
		return fmt.Sprintf("%s %d", i.Op, i.Arg)
	case ArgTarget:
		return fmt.Sprintf("%s ->%d", i.Op, i.Arg)
	default:
		return i.Op.String()
	}
}

// Program is a complete unit of virtual machine code plus its initial
// memory image. A Program is immutable once built; all interpreters and
// caching compilers treat it as read-only.
type Program struct {
	// Code is the instruction sequence. Execution starts at Entry and
	// ends when OpHalt executes.
	Code []Instr

	// Entry is the code index where execution starts.
	Entry int

	// MemSize is the number of bytes of data memory the program needs.
	MemSize int

	// Data holds the initial contents of the low bytes of memory
	// (strings, initialized variables). len(Data) <= MemSize.
	Data []byte

	// Words maps a label (word name) to its starting code index.
	// Used by the disassembler and by tests; execution does not
	// consult it.
	Words map[string]int
}

// WordAt returns the name of the word starting exactly at code index
// pc, or "".
func (p *Program) WordAt(pc int) string {
	for name, at := range p.Words {
		if at == pc {
			return name
		}
	}
	return ""
}

// WordNames returns the defined word names sorted by code index.
func (p *Program) WordNames() []string {
	names := make([]string, 0, len(p.Words))
	for name := range p.Words {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Words[names[i]] != p.Words[names[j]] {
			return p.Words[names[i]] < p.Words[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Validate checks structural well-formedness: every opcode defined,
// every branch/call target in range, entry in range, and memory sizes
// consistent. All execution engines may assume a validated program.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("vm: empty program")
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("vm: entry %d out of range [0,%d)", p.Entry, len(p.Code))
	}
	if len(p.Data) > p.MemSize {
		return fmt.Errorf("vm: data (%d bytes) exceeds memory size %d", len(p.Data), p.MemSize)
	}
	for pc, ins := range p.Code {
		if !ins.Op.Valid() {
			return fmt.Errorf("vm: pc %d: invalid opcode %d", pc, uint8(ins.Op))
		}
		if EffectOf(ins.Op).Arg == ArgTarget {
			if ins.Arg < 0 || ins.Arg >= Cell(len(p.Code)) {
				return fmt.Errorf("vm: pc %d: %s target %d out of range [0,%d)",
					pc, ins.Op, ins.Arg, len(p.Code))
			}
		}
	}
	return nil
}

// BranchTargets reports, per code index, whether it is the target of
// some branch, call or loop instruction, or the entry point: the
// result has len(p.Code) entries, indexed by pc. Targets outside the
// code (only an invalid program has them) are left out. Static stack
// caching reconciles the cache state at exactly these points (the
// paper's "control flow convention", §5).
func (p *Program) BranchTargets() []bool {
	n := len(p.Code)
	targets := make([]bool, n)
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			targets[pc] = true
		}
	}
	mark(p.Entry)
	for pc, ins := range p.Code {
		eff := EffectOf(ins.Op)
		if eff.Arg == ArgTarget {
			mark(int(ins.Arg))
			// The fall-through successor of a conditional branch or
			// call is also a join point: control can reach it both in
			// a straight line and, for call returns, from OpExit.
			if ins.Op != OpBranch {
				mark(pc + 1)
			}
		}
		if ins.Op == OpExit || ins.Op == OpHalt {
			mark(pc + 1)
		}
	}
	return targets
}
