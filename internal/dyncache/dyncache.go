// Package dyncache implements dynamic stack caching (paper §4): the
// interpreter keeps track of the cache state, holding the top cache
// depth items of the data stack in a register file. The organization
// is the minimal one (§3.2) — one state per number of cached items,
// bottom-anchored — with the §3.1 stack-pointer-update elimination and
// a configurable overflow followup state (§3.3), exactly the design
// space the paper's Fig. 22/23 sweeps explore.
//
// In the paper the cache state selects one of several copies of the
// whole interpreter and the real-machine program counter encodes the
// state; Go cannot replicate an interpreter per state, so here the
// state is an explicit variable and the costs the replication would
// save or incur are accounted through core.Counters with the paper's
// cost model. Semantics are delegated to interp.Apply, so results are
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

	// Counters is the argument-access cost of the run under the
	// paper's model.
	Counters core.Counters

	// RiseAfterOverflow[k] counts overflow events after which the
	// cache depth rose at most k items above the overflow followup
	// state before the next underflow, further overflow, or the end of
	// the run. The paper's §6 random-walk discussion ("there's a very
	// strong tendency to go down after going up") is this histogram.
	RiseAfterOverflow map[int]int64
}

// Run executes p under dynamic stack caching with the given policy.
// Budgets and program inputs come through the machine: callers needing
// them configure a machine with interp.ExecSpec and use RunOn.
func Run(p *vm.Program, pol core.MinimalPolicy) (*Result, error) {
	return RunOn(interp.NewMachine(p), pol)
}

// RunOn executes the machine's current program under dynamic stack
// caching without allocating a new machine; the step budget is the
// machine's MaxSteps. The pooled-execution service layer rebinds a
// recycled machine (interp.Machine.Rebind) and calls this.
func RunOn(m *interp.Machine, pol core.MinimalPolicy) (*Result, error) {
	table, err := core.BuildTable(pol)
	if err != nil {
		return nil, err
	}
	p := m.Prog
	res := &Result{Machine: m, RiseAfterOverflow: make(map[int]int64)}

	regs := make([]vm.Cell, pol.NRegs)
	c := 0 // cached items; regs[0..c-1], bottom-anchored

	var args, outs [8]vm.Cell
	conceptual := make([]vm.Cell, pol.NRegs+vm.MaxOut)

	// Rise tracking for the random-walk analysis.
	riseActive := false
	riseBase, riseMax := 0, 0
	endRise := func() {
		if riseActive {
			res.RiseAfterOverflow[riseMax]++
			riseActive = false
		}
	}

	code := p.Code
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
		eff := vm.EffectOf(ins.Op)
		m.Steps++
		res.Counters.Instructions++
		res.Counters.Dispatches++

		// The (state × opcode) table lookup is the software analog of
		// the paper's jump into the interpreter copy for the current
		// cache state.
		tr := table.Lookup(c, ins.Op)
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
		// deepest items on overflow).
		fromRegs := eff.In
		fromMem := 0
		if fromRegs > c {
			fromMem = fromRegs - c
			fromRegs = c
		}
		if fromMem > m.SP {
			flush()
			return res, failAt(m, "stack underflow")
		}
		copy(args[:fromMem], m.Stack[m.SP-fromMem:m.SP])
		m.SP -= fromMem
		copy(args[fromMem:eff.In], regs[c-fromRegs:c])
		rem := c - fromRegs

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
		if newDepth <= pol.NRegs && newDepth == tr.NewDepth {
			// Fast path: results go straight on top of the survivors.
			copy(regs[rem:], outs[:nout])
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
