package dyncache

import (
	"stackcache/internal/core"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// RunRotating executes p under dynamic stack caching with the
// overflow-move-optimized organization of §3.3 (core.RotatingPolicy):
// the register file is treated as a ring, the cache-bottom anchor
// rotates on overflow, and spills therefore move nothing. The state is
// (cached count, base register) — n²+1 states, the second row of
// Fig. 18.
func RunRotating(p *vm.Program, pol core.RotatingPolicy) (*Result, error) {
	return RunRotatingOn(interp.NewMachine(p), pol)
}

// RunRotatingOn executes the machine's current program under the
// rotating organization without allocating a new machine; the step
// budget is the machine's MaxSteps. Pooled-execution entry point.
func RunRotatingOn(m *interp.Machine, pol core.RotatingPolicy) (*Result, error) {
	table, err := core.BuildRotatingTable(pol)
	if err != nil {
		return nil, err
	}
	p := m.Prog
	res := &Result{Machine: m, RiseAfterOverflow: make(map[int]int64)}

	n := pol.NRegs
	regs := make([]vm.Cell, n)
	base, c := 0, 0 // cached item at offset r lives in regs[(base+r)%n]

	var args, outs [8]vm.Cell

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

	at := func(off int) *vm.Cell { return &regs[(base+off)%n] }

	// flush spills the cached items into the machine stack; see the
	// comment in RunOn — a deep-stack halt can overflow here, and
	// error paths ignore the returned error.
	flush := func() error {
		for i := 0; i < c; i++ {
			if m.SP == len(m.Stack) {
				c = 0
				return failAt(m, "stack overflow")
			}
			m.Stack[m.SP] = *at(i)
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

		// Gather arguments.
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
		for i := 0; i < fromRegs; i++ {
			args[fromMem+i] = *at(c - fromRegs + i)
		}
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
		if newDepth <= n && newDepth == tr.NewDepth {
			for i := 0; i < nout; i++ {
				*at(rem + i) = outs[i]
			}
			c = newDepth
		} else {
			// Overflow: spill the deepest items by rotating the base;
			// survivors keep their registers.
			spill := newDepth - tr.NewDepth
			spillOld := spill
			if spillOld > rem {
				spillOld = rem
			}
			for i := 0; i < spillOld; i++ {
				if m.SP == len(m.Stack) {
					flush()
					return res, failAt(m, "stack overflow")
				}
				m.Stack[m.SP] = *at(i)
				m.SP++
			}
			// Excess results beyond the register file (tiny caches).
			for i := 0; i < spill-spillOld; i++ {
				if m.SP == len(m.Stack) {
					flush()
					return res, failAt(m, "stack overflow")
				}
				m.Stack[m.SP] = outs[i]
				m.SP++
			}
			base = (base + spillOld) % n
			c = rem - spillOld
			for i := spill - spillOld; i < nout; i++ {
				*at(c) = outs[i]
				c++
			}
		}

		if riseActive {
			if rise := c - riseBase; rise > riseMax {
				riseMax = rise
			}
		}
	}
}
