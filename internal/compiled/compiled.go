// Package compiled is the repository's ahead-of-time closure compiler:
// a per-program lowering from verified bytecode to a directly
// executable artifact made of fused Go closures, registered as engine
// "compiled".
//
// Where every other engine specializes the *dispatch loop* (switch,
// token/threaded call dispatch, stack-caching state machines), this one
// specializes around the *program*: each basic block is lowered once
// into a chain of `func(*state, sp, rp)` closures threaded by
// continuation — a closure finishes its work and returns the next
// closure, so the hot path has no opcode switch, no per-instruction pc
// bookkeeping and no table dispatch. The lowering additionally
//
//   - constant-folds lit-fed arithmetic with the shared vm.EvalUnary
//     and vm.EvalBinary (lit 2; lit 3; + becomes one push of 5, chains
//     fold transitively),
//   - fuses superinstruction patterns: lit-fed binary ops, compare+
//     0branch pairs, constant-address memory ops, literal runs,
//   - hoists the per-instruction step-limit and stack-depth checks into
//     one block-entry precheck, and
//   - when the program's vm.Analyze facts are Proved, emits a second
//     variant of the code with the stack-depth checks deleted at
//     codegen time (the check-elision contract of facts_test.go, moved
//     from run-time branch gating into the generated code itself).
//
// Exactness is non-negotiable: the artifact is observably identical to
// the switch interpreter on every program, including malformed and
// over-budget ones. Three mechanisms make that cheap to guarantee:
//
//   - every pc keeps an individually addressable fully checked
//     single-step closure, which runs interp.RunSwitch itself under a
//     one-step budget, so a dynamic jump into the middle of a fused
//     block (a corrupt return address popped by OpExit) lands on the
//     baseline's own per-instruction semantics;
//   - a block whose entry precheck fails (not enough step budget or
//     stack headroom for the whole block) falls back to those same
//     single-step closures, which report the baseline's error at
//     exactly the instruction where it fires;
//   - fused bodies that can still fail mid-block (division, memory,
//     output budget) reconstruct the baseline's partial state — stack
//     contents, sp, pc, step count — before reporting the error.
//
// Unprovable programs compile with full checks; invalid opcodes and
// out-of-range branch targets compile into closures that report the
// same errors the baseline would. Compile never refuses a program.
package compiled

import (
	"sync/atomic"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// state is the part of the execution state that does not live in
// trampoline registers: the machine (for memory and output), the two
// stack arrays, the step accounting, and the exit condition. sp and rp
// are deliberately NOT here — they thread through closure arguments and
// return values so Go's register ABI keeps them out of memory on the
// hot path.
type state struct {
	m     *interp.Machine
	st    []vm.Cell
	rs    []vm.Cell
	steps int64
	limit int64
	nmem  int // len(m.Mem), hoisted for the transfer loop's memHi gate

	// pc and err are the exit condition: every closure that returns a
	// nil continuation must set pc (the baseline's final m.PC) and err
	// (nil exactly for OpHalt).
	pc  int
	err error
}

// op is one compiled closure: it executes some amount of work and
// returns the continuation plus the updated stack pointers. A nil
// continuation stops the trampoline; s.pc/s.err carry the outcome.
type op func(s *state, sp, rp int) (op, int, int)

// Artifact is the compiled form of one program: a checked variant that
// is exact on arbitrary machine states, and (for programs whose
// analysis facts are Proved) an elided variant whose generated code
// contains no stack-depth checks at all. Artifacts are immutable and
// safe for concurrent Run.
type Artifact struct {
	prog    *vm.Program
	checked *variant
	elided  *variant // nil unless facts.Proved

	stats Stats
}

// Stats describes what the lowering did, for tests and metrics.
type Stats struct {
	// Blocks is the number of basic blocks lowered.
	Blocks int
	// Nodes is the number of closures on the fast paths (checked
	// variant); fewer nodes than instructions means fusion happened.
	Nodes int
	// Instructions is the number of bytecode instructions covered by
	// fast-path closures.
	Instructions int
	// Folded counts instructions removed by constant folding.
	Folded int
	// Elided reports whether a check-free variant was generated.
	Elided bool
}

// Stats returns the artifact's lowering statistics.
func (a *Artifact) Stats() Stats { return a.stats }

// Compile lowers p into an executable artifact. facts may be nil (the
// program is then treated as unproven and compiled with full checks);
// passing the program's vm.Analyze result lets codegen delete the
// stack-depth checks the analysis proved redundant. Compile accepts
// any program — malformed ones compile into closures that report the
// baseline's errors — and only rejects nil.
func Compile(p *vm.Program, facts *vm.Facts) (*Artifact, error) {
	if p == nil {
		return nil, errNilProgram
	}
	// Quickened programs compile from their constituent instructions:
	// this engine applies its own fusion pass over basic blocks, which
	// subsumes the quickener's sequences, and Unquicken is a pure
	// opcode rewrite (same code length, same pcs, same effects) so the
	// caller's facts and the machine's pc numbering stay valid.
	p = vm.Unquicken(p)
	a := &Artifact{prog: p}
	a.checked = build(p, buildChecked)
	a.stats = a.checked.stats
	if facts != nil && facts.Proved {
		a.elided = build(p, buildElided)
		a.stats.Elided = true
		provedTotal.Add(1)
	}
	programsTotal.Add(1)
	return a, nil
}

type compileError string

func (e compileError) Error() string { return string(e) }

const errNilProgram = compileError("compiled: Compile of nil program")

// Run executes m's program, which must be the program this artifact was
// compiled from. The elided variant runs only behind the same gate
// every engine uses (interp.Machine.ElideChecks): proved facts attached
// to the machine, entry at Prog.Entry, and actual headroom for the
// proved maxima above any seeded initial stack. Everything else — and
// any run with vm.NoFacts pinned — takes the checked variant.
func (a *Artifact) Run(m *interp.Machine) error {
	v := a.checked
	if a.elided != nil && m.ElideChecks() {
		v = a.elided
	}
	pc := m.PC
	if pc < 0 || pc > v.n {
		return interp.PCError(pc)
	}
	s := state{
		m:     m,
		st:    m.Stack,
		rs:    m.RSt,
		steps: m.Steps,
		limit: stepLimit(m),
		nmem:  len(m.Mem),
		pc:    pc,
	}
	f, sp, rp := v.cont[pc], m.SP, m.RP
	for f != nil {
		f, sp, rp = f(&s, sp, rp)
	}
	m.SP, m.RP, m.PC, m.Steps = sp, rp, s.pc, s.steps
	return s.err
}

func stepLimit(m *interp.Machine) int64 {
	if m.MaxSteps > 0 {
		return m.MaxSteps
	}
	return interp.DefaultMaxSteps
}

// Compile counters, exported for the service layer's
// vmd_compiled_programs_total / vmd_compiled_proved_total metrics.
var (
	programsTotal atomic.Int64
	provedTotal   atomic.Int64
)

// Counters reports how many artifacts this process has compiled, and
// how many of those were proved programs that received a check-free
// code variant.
func Counters() (programs, proved int64) {
	return programsTotal.Load(), provedTotal.Load()
}
