package core

import "fmt"

// RotatingPolicy is the overflow-move-optimized organization of §3.3
// (Figs. 15/16, the "overflow move opt." row of Fig. 18): instead of
// sliding all cached items down on an overflow, only the bottom items
// are stored and the register that held them is reused for the top of
// stack — the register assignment *rotates*. A state is (cached
// items, base register), n²+1 states for n registers, and overflows
// cost no moves at all.
//
// Everything else matches MinimalPolicy: bottom-relative assignment,
// sp-offset update elimination, underflow followup = items produced.
type RotatingPolicy struct {
	// NRegs is the number of cache registers.
	NRegs int

	// OverflowTo is the followup cached-item count after an overflow
	// spill.
	OverflowTo int
}

// Validate checks the policy's parameters.
func (p RotatingPolicy) Validate() error {
	if p.NRegs < 1 || p.NRegs > 255 {
		return fmt.Errorf("core: NRegs %d out of range [1,255]", p.NRegs)
	}
	if p.OverflowTo < 1 || p.OverflowTo > p.NRegs {
		return fmt.Errorf("core: OverflowTo %d out of range [1,%d]", p.OverflowTo, p.NRegs)
	}
	return nil
}

// States returns the size of the state space, Fig. 18's n²+1.
func (p RotatingPolicy) States() int { return p.NRegs*p.NRegs + 1 }

// Step computes the transition for an instruction with data-stack
// effect (in, out) executed with c items cached. The successor's base
// rotation is implicit (the executing engine tracks it); the cost
// difference from MinimalPolicy.Step is exactly that overflows move
// nothing.
func (p RotatingPolicy) Step(c, in, out int) Transition {
	tr := MinimalPolicy{NRegs: p.NRegs, OverflowTo: p.OverflowTo}.Step(c, in, out)
	if tr.Overflow {
		// §3.3: "just the bottom cached stack item is stored to memory
		// and the register where it resided is reused" — survivors
		// keep their registers.
		tr.Moves = 0
	}
	return tr
}

// StepManip computes the transition for a stack-manipulation
// instruction. Shuffle moves are still needed (the organization only
// optimizes overflow moves; §3.4 organizations would remove these
// too), but the spill-shift moves of the minimal organization
// disappear: after a spill the survivors stay put and the base
// rotates.
func (p RotatingPolicy) StepManip(c, in int, m []int) Transition {
	out := len(m)
	if in > c {
		return p.Step(c, in, out)
	}
	newDepth := c - in + out
	tr := Transition{NewDepth: newDepth}
	spill := 0
	if newDepth > p.NRegs {
		f := p.OverflowTo
		if f < out {
			f = out
		}
		if f > p.NRegs {
			f = p.NRegs
		}
		spill = newDepth - f
		tr = Transition{
			NewDepth: f,
			Stores:   spill,
			Updates:  1,
			Overflow: true,
		}
	}
	// An output is free when its source already sits in its
	// destination register. Positions are relative to the cache
	// bottom; spilling advances the base, so the destination offset is
	// measured in pre-spill coordinates.
	moves := 0
	preSpillDepth := tr.NewDepth + spill
	for k, src := range m {
		dstOff := preSpillDepth - 1 - k
		if dstOff-spill < 0 {
			// Destination was spilled to memory (tiny caches); its
			// store is already counted.
			continue
		}
		srcOff := c - 1 - src
		if srcOff != dstOff {
			moves++
		}
	}
	tr.Moves = moves
	return tr
}
