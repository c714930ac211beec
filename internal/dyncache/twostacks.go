package dyncache

import (
	"fmt"

	"stackcache/internal/core"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// TwoStackPolicy is the "two stacks" organization of §3.4 and Fig. 18:
// the data stack and the return stack are "treated in a unified
// manner, sharing the same set of registers" — up to RMax return-stack
// items are cached in registers taken from the same file the data
// cache uses, in a minimal organization each (states (d, r) with
// d + r ≤ NRegs, r ≤ RMax; Fig. 18's 3n states for RMax = 2).
type TwoStackPolicy struct {
	// NRegs is the shared register file size.
	NRegs int

	// RMax is the most return-stack items cached (Fig. 18 uses 2).
	RMax int

	// OverflowTo is the data cache's overflow followup depth (clamped
	// to the capacity left by the return cache).
	OverflowTo int
}

// Validate checks the policy.
func (p TwoStackPolicy) Validate() error {
	if p.NRegs < 1 || p.NRegs > 255 {
		return fmt.Errorf("dyncache: NRegs %d out of range [1,255]", p.NRegs)
	}
	if p.RMax < 0 || p.RMax >= p.NRegs {
		return fmt.Errorf("dyncache: RMax %d out of range [0,%d)", p.RMax, p.NRegs)
	}
	if p.OverflowTo < 1 || p.OverflowTo > p.NRegs {
		return fmt.Errorf("dyncache: OverflowTo %d out of range [1,%d]", p.OverflowTo, p.NRegs)
	}
	return nil
}

// States counts the organization's states: pairs (d, r) with
// d + r ≤ NRegs, r ≤ RMax — Fig. 18's 3n for RMax = 2, n ≥ 2.
func (p TwoStackPolicy) States() int {
	count := 0
	for r := 0; r <= p.RMax; r++ {
		for d := 0; d+r <= p.NRegs; d++ {
			count++
		}
	}
	return count
}

// TwoStackResult extends Result with the return-stack cache's own
// counters (the paper's Fig. 20 keeps the two stacks' traffic
// separate).
type TwoStackResult struct {
	Result
	RCounters core.Counters
}

// RunTwoStacks executes p with both stacks cached in the shared
// register file. Data-stack mechanics are exact (identical results to
// the baseline); the return-stack cache is accounted with the same
// minimal-organization transition rules, with the data cache's
// capacity shrunk by the cached return items.
func RunTwoStacks(p *vm.Program, pol TwoStackPolicy) (*TwoStackResult, error) {
	return RunTwoStacksOn(interp.NewMachine(p), pol)
}

// RunTwoStacksOn executes the machine's current program with both
// stacks cached, without allocating a new machine; the step budget is
// the machine's MaxSteps. Pooled-execution entry point.
func RunTwoStacksOn(m *interp.Machine, pol TwoStackPolicy) (*TwoStackResult, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	p := m.Prog
	res := &TwoStackResult{Result: Result{Machine: m, RiseAfterOverflow: make(map[int]int64)}}

	regs := make([]vm.Cell, pol.NRegs)
	c := 0 // cached data items
	r := 0 // cached return items (model only; values live in m.RSt)

	var args, outs [8]vm.Cell
	conceptual := make([]vm.Cell, pol.NRegs+vm.MaxOut)

	code := p.Code
	limit := int64(interp.DefaultMaxSteps)
	if m.MaxSteps > 0 {
		limit = m.MaxSteps
	}

	// flush spills the cached items into the machine stack; see the
	// comment in RunOn — a deep-stack halt can overflow here, and
	// error paths ignore the returned error.
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

		// Return-stack cache model: pops then pushes, capped at RMax
		// and at the space the data cache leaves free.
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
			rCap := pol.RMax
			if free := pol.NRegs - c; free < rCap {
				rCap = free
			}
			if rCap < 0 {
				rCap = 0
			}
			if r > rCap {
				res.RCounters.Stores += int64(r - rCap)
				r = rCap
				rTraffic = true
			}
			if rTraffic {
				res.RCounters.Updates++
			}
			res.RCounters.Instructions++
		}

		// Data-stack cache: capacity is what the return cache leaves.
		cap := pol.NRegs - r
		f := pol.OverflowTo
		if f > cap {
			f = cap
		}
		if f < 1 {
			f = 1
			if cap < 1 {
				// Degenerate: the return cache filled the file; give
				// the data stack one register back.
				res.RCounters.Stores++
				r--
				cap = 1
			}
		}
		dataPol := core.MinimalPolicy{NRegs: cap, OverflowTo: f}
		var tr core.Transition
		if eff.IsManip() {
			tr = dataPol.StepManip(c, eff.In, eff.Map)
		} else {
			tr = dataPol.Step(c, eff.In, eff.Out)
		}
		res.Counters.Loads += int64(tr.Loads)
		res.Counters.Stores += int64(tr.Stores)
		res.Counters.Moves += int64(tr.Moves)
		res.Counters.Updates += int64(tr.Updates)
		if tr.Overflow {
			res.Counters.Overflows++
		}
		if tr.Underflow {
			res.Counters.Underflows++
		}

		// Mechanics, identical to Run.
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
				c = rem
				return res, flush()
			}
			c = rem
			flush()
			return res, err
		}

		newDepth := rem + nout
		if newDepth <= cap && newDepth == tr.NewDepth {
			copy(regs[rem:], outs[:nout])
			c = newDepth
		} else {
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
	}
}
