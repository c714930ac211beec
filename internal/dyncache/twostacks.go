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

// NewTwoStacks returns the two-stack organization of pol: one minimal
// table per cached return depth r = 0..RMax, each with the register
// file less r as its capacity and the overflow followup clamped to it.
func NewTwoStacks(pol TwoStackPolicy) (*Org, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	o := &Org{}
	for r := 0; r <= pol.RMax; r++ {
		n := pol.NRegs - r
		t, err := core.BuildTable(core.MinimalPolicy{NRegs: n, OverflowTo: min(pol.OverflowTo, n)})
		if err != nil {
			return nil, err
		}
		o.tables = append(o.tables, t)
	}
	return o, nil
}

// RunTwoStacks executes p with both stacks cached in the shared
// register file. Data-stack mechanics are exact (identical results to
// the baseline); the return-stack cache is accounted with the same
// minimal-organization transition rules, with the data cache's
// capacity shrunk by the cached return items.
func RunTwoStacks(p *vm.Program, pol TwoStackPolicy) (*Result, error) {
	o, err := NewTwoStacks(pol)
	if err != nil {
		return nil, err
	}
	return o.Run(interp.NewMachine(p))
}
