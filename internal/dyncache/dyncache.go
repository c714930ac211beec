// Package dyncache implements dynamic stack caching (paper §4): the
// interpreter keeps track of the cache state, holding the top cache
// depth items of the data stack in a register file.
//
// In the paper the cache state selects one of several copies of the
// whole interpreter and the real-machine program counter encodes the
// state. §3.3 (overflow move optimization) and §3.4 (two stacks)
// change only the state machine, the organization, and leave the
// interpreter alone. Here the same holds: there is one interpreter
// loop (Org.Run), and an organization is its transition tables, built
// once by New or NewTwoStacks. Each row of a core.TransitionTable
// plays the part of one interpreter copy. Go cannot replicate an
// interpreter per state, so the state is an explicit variable and the
// costs the replication would save or incur are accounted through
// core.Counters with the paper's cost model.
//
// Three organizations run on the loop:
//
//   - minimal (§3.2, core.MinimalPolicy): one state per number of
//     cached items, bottom-anchored, with the §3.1 stack-pointer-update
//     elimination and a configurable overflow followup state (§3.3),
//     the design space of the paper's Fig. 22/23 sweeps;
//   - rotating (§3.3, core.RotatingPolicy): the overflow-move-optimized
//     organization. Its register ring is not modelled, because no cost
//     depends on which register holds an item: the table prices every
//     step;
//   - two stacks (§3.4, TwoStackPolicy): up to RMax return-stack items
//     share the register file, with one minimal table per cached
//     return depth.
//
// The loop runs the return-stack model for every organization; the
// one-stack organizations cache no return-stack items, so their
// RCounters count every return-stack access. It fills the rise
// histogram for all three organizations, two stacks included, though
// nothing reads the two-stack one.
//
// Semantics are delegated to interp.Apply, so results are
// bit-identical to the baseline interpreters — the engine's tests
// verify that on every workload.
package dyncache

import (
	"stackcache/internal/core"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// Result is the outcome of a dynamically stack-cached execution.
type Result struct {
	// Machine holds the final machine state. Its Stack contains the
	// full data stack (cached items are flushed at halt), so its
	// Snapshot is directly comparable with a baseline run.
	Machine *interp.Machine

	// Counters is the data stack's argument-access cost under the
	// paper's model.
	Counters core.Counters

	// RCounters is the return stack's own cost (the paper's Fig. 20
	// keeps the two stacks' traffic separate).
	RCounters core.Counters

	// RiseAfterOverflow[k] counts overflow events after which the
	// cache depth rose at most k items above the overflow followup
	// state before the next underflow, further overflow, or the end of
	// the run. The paper's §6 random-walk discussion ("there's a very
	// strong tendency to go down after going up") is this histogram.
	RiseAfterOverflow map[int]int64
}

// Org is one organization's state machine: tables[r] prices each
// instruction with r return-stack items cached. The one-stack
// organizations have only tables[0]. An Org is never written after
// construction, so concurrent Runs share it.
type Org struct {
	tables []*core.TransitionTable
}

// New returns the one-stack organization of pol, the minimal or the
// rotating one.
func New[P core.Policy](pol P) (*Org, error) {
	t, err := core.BuildTable(pol)
	if err != nil {
		return nil, err
	}
	return &Org{tables: []*core.TransitionTable{t}}, nil
}

// Run executes p under dynamic stack caching with the minimal
// organization. Budgets and program inputs come through the machine:
// callers needing them configure a machine with interp.ExecSpec and
// use Org.Run.
func Run(p *vm.Program, pol core.MinimalPolicy) (*Result, error) {
	o, err := New(pol)
	if err != nil {
		return nil, err
	}
	return o.Run(interp.NewMachine(p))
}

// RunRotating executes p under the overflow-move-optimized
// organization of §3.3 (core.RotatingPolicy).
func RunRotating(p *vm.Program, pol core.RotatingPolicy) (*Result, error) {
	o, err := New(pol)
	if err != nil {
		return nil, err
	}
	return o.Run(interp.NewMachine(p))
}

// Run executes the machine's current program under the organization
// without allocating a new machine; the step budget is the machine's
// MaxSteps. The pooled-execution service layer rebinds a recycled
// machine (interp.Machine.Rebind) and calls this through the engine
// registry. The Result is never nil.
func (o *Org) Run(m *interp.Machine) (*Result, error) {
	res := &Result{Machine: m, RiseAfterOverflow: make(map[int]int64)}
	nregs := o.tables[0].States() - 1
	rmax := len(o.tables) - 1

	buf := make([]vm.Cell, 2*nregs+vm.MaxOut)
	regs, conceptual := buf[:nregs], buf[nregs:]
	c := 0 // cached data items; regs[0..c-1], bottom-anchored
	r := 0 // cached return items (model only; values live in m.RSt)

	var args, outs [8]vm.Cell

	// Rise tracking for the random-walk analysis.
	riseActive := false
	riseBase, riseMax := 0, 0
	endRise := func() {
		if riseActive {
			res.RiseAfterOverflow[riseMax]++
			riseActive = false
		}
	}

	code := m.Prog.Code
	limit := int64(interp.DefaultMaxSteps)
	if m.MaxSteps > 0 {
		limit = m.MaxSteps
	}

	// flush spills the cached items into the machine stack, for halt
	// and error paths. The cache extends the stack beyond m.Stack's
	// capacity, so a deep-stack halt can overflow here; error paths
	// ignore the returned error (the original failure wins) and drop
	// whatever did not fit.
	flush := func() error {
		for i := 0; i < c; i++ {
			if m.SP == len(m.Stack) {
				c = 0
				return failAt(m, "stack overflow")
			}
			m.Stack[m.SP] = regs[i]
			m.SP++
		}
		c = 0
		return nil
	}

	for {
		// Same dispatch-order contract as the baseline interpreters:
		// pc bounds, step limit, opcode validity, then execution — so
		// malformed programs fail with identical error classes.
		if m.PC < 0 || m.PC >= len(code) {
			flush()
			return res, interp.PCError(m.PC)
		}
		if m.Steps >= limit {
			flush()
			return res, failAt(m, "step limit exceeded")
		}
		ins := code[m.PC]
		if !ins.Op.Valid() {
			flush()
			return res, failAt(m, "invalid opcode")
		}
		eff := &effects[ins.Op]
		m.Steps++
		res.Counters.Instructions++
		res.Counters.Dispatches++

		// Return-stack cache model: pops then pushes, capped at rmax
		// and at the registers the data cache leaves free.
		if eff.RIn > 0 || eff.ROut > 0 {
			rTraffic := false
			if eff.RIn > r {
				res.RCounters.Loads += int64(eff.RIn - r)
				r = 0
				rTraffic = true
			} else {
				r -= eff.RIn
			}
			r += eff.ROut
			if rCap := min(rmax, nregs-c); r > rCap {
				res.RCounters.Stores += int64(r - rCap)
				r = rCap
				rTraffic = true
			}
			if rTraffic {
				res.RCounters.Updates++
			}
			res.RCounters.Instructions++
		}

		// The (state × opcode) table lookup is the software analog of
		// the paper's jump into the interpreter copy for the current
		// cache state. c ≤ nregs-r holds here: the return model above
		// leaves the data cache its c items. The transition is read in
		// place, not copied.
		tr := &o.tables[r].Rows[c][ins.Op]
		res.Counters.Loads += int64(tr.Loads)
		res.Counters.Stores += int64(tr.Stores)
		res.Counters.Moves += int64(tr.Moves)
		res.Counters.Updates += int64(tr.Updates)
		if tr.Overflow {
			res.Counters.Overflows++
			endRise()
			riseActive = true
			riseBase, riseMax = tr.NewDepth, 0
		}
		if tr.Underflow {
			res.Counters.Underflows++
			endRise()
		}

		// Mechanics: gather arguments (deepest from memory on
		// underflow), apply semantics, place results (spilling the
		// deepest items on overflow). The few cells a step moves
		// between registers are copied in loops: a copy call per step
		// costs more than the moves.
		fromRegs, fromMem := eff.In, 0
		if fromRegs > c {
			fromMem, fromRegs = fromRegs-c, c
			if fromMem > m.SP {
				flush()
				return res, failAt(m, "stack underflow")
			}
			copy(args[:fromMem], m.Stack[m.SP-fromMem:m.SP])
			m.SP -= fromMem
		}
		rem := c - fromRegs
		for i := 0; i < fromRegs; i++ {
			args[fromMem+i] = regs[rem+i]
		}

		nout, err := interp.Apply(m, ins, args[:eff.In], outs[:], m.SP+rem)
		if err != nil {
			if err == interp.ErrHalt {
				endRise()
				c = rem
				return res, flush()
			}
			c = rem
			flush()
			return res, err
		}

		newDepth := rem + nout
		if newDepth == tr.NewDepth {
			// Fast path: results go straight on top of the survivors.
			for i := 0; i < nout; i++ {
				regs[rem+i] = outs[i]
			}
			c = newDepth
		} else {
			// Overflow (or a followup state below capacity): build the
			// conceptual stack and spill its bottom to memory.
			copy(conceptual[:rem], regs[:rem])
			copy(conceptual[rem:], outs[:nout])
			spill := newDepth - tr.NewDepth
			for i := 0; i < spill; i++ {
				if m.SP == len(m.Stack) {
					flush()
					return res, failAt(m, "stack overflow")
				}
				m.Stack[m.SP] = conceptual[i]
				m.SP++
			}
			copy(regs[:tr.NewDepth], conceptual[spill:newDepth])
			c = tr.NewDepth
		}

		if riseActive {
			if rise := c - riseBase; rise > riseMax {
				riseMax = rise
			}
		}
	}
}

// effects is vm's effect table, read in place by the loop instead of
// copied out of vm.EffectOf at every step.
var effects = func() (t [vm.NumOpcodes]vm.Effect) {
	for op := range t {
		t[op] = vm.EffectOf(vm.Opcode(op))
	}
	return t
}()

func failAt(m *interp.Machine, msg string) error {
	// m.PC can point out of range when a failure is reported after a
	// control transfer (e.g. OpExit popping a corrupt return address);
	// the error constructor must not index Code with it.
	op := vm.OpNop
	if m.PC >= 0 && m.PC < len(m.Prog.Code) {
		// A super opcode canonicalizes to its first constituent — the
		// opcode the unquickened baseline reports at this pc.
		op = vm.CanonicalInstr(m.Prog.Code[m.PC]).Op
	}
	return &interp.RuntimeError{PC: m.PC, Op: op, Msg: msg}
}
