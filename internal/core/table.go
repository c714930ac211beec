package core

import "stackcache/internal/vm"

// Policy is a one-stack organization's transition function: the
// minimal organization or the rotating one. Both have the same fields,
// so a table's row count is MinimalPolicy(pol).NRegs+1 for either.
type Policy interface {
	MinimalPolicy | RotatingPolicy
	Validate() error
	Step(c, in, out int) Transition
	StepManip(c, in int, m []int) Transition
}

// TransitionTable precomputes, for every (cache state, opcode) pair,
// the transition of a Policy. This is the software analog of the
// paper's dynamic-caching implementation: "there is a copy of the
// whole interpreter for every cache state" — each row of the table is
// one such copy, and dispatching on (state, opcode) replaces the
// per-instruction transition computation. The dyncache engine uses it
// on the hot path; tests verify it against the Step/StepManip
// functions it is built from.
type TransitionTable struct {
	// Rows[c][op] is the transition for executing op with c items
	// cached, c in 0..NRegs.
	Rows [][]Transition
}

// BuildTable precomputes all transitions for the policy.
func BuildTable[P Policy](pol P) (*TransitionTable, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	n := MinimalPolicy(pol).NRegs
	t := &TransitionTable{Rows: make([][]Transition, n+1)}
	for c := 0; c <= n; c++ {
		row := make([]Transition, vm.NumOpcodes)
		for op := vm.Opcode(0); op < vm.NumOpcodes; op++ {
			eff := vm.EffectOf(op)
			if eff.IsManip() {
				row[op] = pol.StepManip(c, eff.In, eff.Map)
			} else {
				row[op] = pol.Step(c, eff.In, eff.Out)
			}
		}
		t.Rows[c] = row
	}
	return t, nil
}

// Lookup returns the transition for op with c items cached.
func (t *TransitionTable) Lookup(c int, op vm.Opcode) Transition {
	return t.Rows[c][op]
}

// States returns the number of cache states the table covers (the
// minimal organization's n+1).
func (t *TransitionTable) States() int { return len(t.Rows) }
