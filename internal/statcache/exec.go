package statcache

import (
	"sync"

	"stackcache/internal/core"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// GuardCells is the size of the guard zone kept below the logical
// stack bottom (see the package comment). Reconciliation to a
// canonical state deeper than the true stack reads zeros from it.
const GuardCells = 1024

// Result is the outcome of a statically cached execution.
type Result struct {
	// Machine holds the final state; its Stack contains the logical
	// data stack, so its Snapshot is comparable with a baseline run.
	Machine *interp.Machine

	// Counters is the run's cost under the paper's model. Its
	// DispatchesSaved() is the number of executed instructions that
	// were optimized away.
	Counters core.Counters
}

// Execute runs a compiled plan with an explicit register file. Budgets
// and program inputs come through the machine: callers needing them
// configure a machine with interp.ExecSpec and use ExecuteOn.
func Execute(plan *Plan) (*Result, error) {
	return ExecuteOn(interp.NewMachine(plan.Prog), plan)
}

// memPool recycles the guard-zone memory stacks across executions so
// that a pooled-machine service allocates no fresh 40KB scratch per
// request. All slices in the pool have the same fixed size.
var memPool = sync.Pool{
	New: func() any {
		return make([]vm.Cell, GuardCells+interp.DefaultStackCap)
	},
}

// ExecuteOn runs a compiled plan on an existing machine (which must be
// bound to plan.Prog — interp.Machine.Rebind does that for recycled
// machines); the step budget is the machine's MaxSteps. This is the
// pooled-execution entry point: the register file is small and the
// guard-zone memory stack comes from an internal pool.
func ExecuteOn(m *interp.Machine, plan *Plan) (*Result, error) {
	res := &Result{Machine: m}
	regs := make([]vm.Cell, plan.Policy.NRegs)
	d := m.SP // initial logical stack depth (ExecSpec args)
	var mem []vm.Cell
	if d <= interp.DefaultStackCap {
		mem = memPool.Get().([]vm.Cell)
		defer func() {
			// The executor reads guard-zone zeros below the logical
			// stack bottom, so a recycled scratch must go back clean.
			for i := range mem {
				mem[i] = 0
			}
			memPool.Put(mem)
		}()
	} else {
		// A machine with an oversized stack seeds more initial cells
		// than the fixed pool slices hold; give it its own scratch and
		// keep the pool homogeneous.
		mem = make([]vm.Cell, GuardCells+d+interp.DefaultStackCap)
	}
	// Execution starts in the canonical state; the cached items stand
	// for the top of the logical stack, so with an empty initial stack
	// they are guard-zone items and the memory stack pointer starts
	// Canonical cells below the logical bottom. The flush at halt then
	// reports exactly the logical stack.
	//
	// An initial stack of depth d (machine cells seeded by ApplySpec)
	// raises the start pointer by d; the top Canonical cells of it are
	// seeded into the canonical registers and the rest onto the memory
	// stack, the exact inverse of the halt flush below.
	k := plan.Policy.Canonical
	msp := GuardCells - k + d
	for j := 0; j < d; j++ {
		if ext := GuardCells + j; ext < msp {
			mem[ext] = m.Stack[j]
		} else {
			regs[ext-msp] = m.Stack[j]
		}
	}

	var args, outs [8]vm.Cell
	var reconBuf [80]vm.Cell

	limit := int64(interp.DefaultMaxSteps)
	if m.MaxSteps > 0 {
		limit = m.MaxSteps
	}

	applyRecon := func(r *Recon) error {
		if r == nil {
			return nil
		}
		vals := reconBuf[:len(r.SrcRegs)]
		for i, src := range r.SrcRegs {
			vals[i] = regs[src]
		}
		for i := 0; i < r.Spill; i++ {
			if msp == len(mem) {
				return failAt(m, "stack overflow")
			}
			mem[msp] = vals[i]
			msp++
		}
		surv := vals[r.Spill:]
		if r.Loads > 0 {
			if msp-r.Loads < 0 {
				return failAt(m, "stack underflow beyond guard zone")
			}
			for i := 0; i < r.Loads; i++ {
				regs[r.DstRegs[i]] = mem[msp-r.Loads+i]
			}
			msp -= r.Loads
		}
		for i, v := range surv {
			regs[r.DstRegs[r.Loads+i]] = v
		}
		return nil
	}

	for {
		// Compile verifies static targets, but OpExit pops its target
		// from the return stack at run time, so a malformed program can
		// still point pc anywhere.
		pc := m.PC
		if pc < 0 || pc >= len(plan.Steps) {
			return res, interp.PCError(pc)
		}
		if m.Steps >= limit {
			return res, failAt(m, "step limit exceeded")
		}
		step := &plan.Steps[pc]
		ins := plan.Prog.Code[pc]
		m.Steps++
		res.Counters.Add(step.Cost)

		// Preloads (eliminated manipulations with uncached arguments).
		if n := len(step.PreloadRegs); n > 0 {
			if msp-n < 0 {
				return res, failAt(m, "stack underflow beyond guard zone")
			}
			for i, r := range step.PreloadRegs {
				regs[r] = mem[msp-n+i]
			}
			msp -= n
		}

		if !step.Exec {
			// Eliminated stack manipulation: spill if the plan says
			// so; otherwise the instruction has vanished entirely.
			for _, r := range step.SpillRegs {
				if msp == len(mem) {
					return res, failAt(m, "stack overflow")
				}
				mem[msp] = regs[r]
				msp++
			}
			m.PC++
			if err := applyRecon(step.PostRecon); err != nil {
				return res, err
			}
			continue
		}

		// Gather arguments: deepest from memory, rest from registers.
		if n := step.MemArgs; n > 0 {
			if msp-n < 0 {
				return res, failAt(m, "stack underflow beyond guard zone")
			}
			copy(args[:n], mem[msp-n:msp])
			msp -= n
		}
		for i, r := range step.ArgRegs {
			args[step.MemArgs+i] = regs[r]
		}
		nargs := step.MemArgs + len(step.ArgRegs)

		// Control transfers reconcile before the jump.
		if err := applyRecon(step.Recon); err != nil {
			return res, err
		}

		// Overflow spills before results are placed.
		for _, r := range step.SpillRegs {
			if msp == len(mem) {
				return res, failAt(m, "stack overflow")
			}
			mem[msp] = regs[r]
			msp++
		}

		depth := msp - GuardCells + step.CachedAfterArgs
		nout, err := interp.Apply(m, ins, args[:nargs], outs[:], depth)
		if err != nil {
			if err == interp.ErrHalt {
				// Halt reconciled to canonical; flush the logical
				// stack into the machine. The scratch stack is larger
				// than the machine stack (guard zone + canonical
				// offset), so a program can halt with more logical
				// cells than m.Stack holds — report overflow rather
				// than writing past it.
				k := plan.Policy.Canonical
				total := msp - GuardCells + k
				if total > len(m.Stack) {
					return res, failAt(m, "stack overflow")
				}
				m.SP = 0
				for i := 0; i < total; i++ {
					ext := msp + k - total + i
					if ext < msp {
						m.Stack[m.SP] = mem[ext]
					} else {
						m.Stack[m.SP] = regs[ext-msp]
					}
					m.SP++
				}
				return res, nil
			}
			return res, err
		}
		for i := 0; i < step.MemOuts && i < nout; i++ {
			if msp == len(mem) {
				return res, failAt(m, "stack overflow")
			}
			mem[msp] = outs[i]
			msp++
		}
		for i := step.MemOuts; i < nout; i++ {
			regs[step.OutRegs[i-step.MemOuts]] = outs[i]
		}

		if step.PostReconOnFallThrough {
			// Conditional control transfer: the fall-through join has
			// a different entry state than the taken target; fix up
			// only when the branch was not taken.
			if m.PC == pc+1 {
				res.Counters.Add(step.CostFall)
				if err := applyRecon(step.PostRecon); err != nil {
					return res, err
				}
			}
		} else if err := applyRecon(step.PostRecon); err != nil {
			return res, err
		}
	}
}

func failAt(m *interp.Machine, msg string) error {
	// m.PC can already point out of range when a post-transfer
	// reconciliation fails after OpExit popped a corrupt return
	// address; the error constructor must not index Code with it.
	op := vm.OpNop
	if m.PC >= 0 && m.PC < len(m.Prog.Code) {
		// A super opcode canonicalizes to its first constituent — the
		// opcode the unquickened baseline reports at this pc.
		op = vm.CanonicalInstr(m.Prog.Code[m.PC]).Op
	}
	return &interp.RuntimeError{PC: m.PC, Op: op, Msg: msg}
}
