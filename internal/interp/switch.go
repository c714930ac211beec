package interp

import "stackcache/internal/vm"

// RunSwitch executes the machine's program with switch dispatch: the
// whole interpreter is one loop around a giant switch, the paper's
// Fig. 2. Virtual machine registers (pc, sp, rp) live in locals, which
// the paper notes is the main advantage switch dispatch has over call
// threading in C; in Go the compiler enregisters them when it can.
func RunSwitch(m *Machine) error {
	code := m.Prog.Code
	st := m.Stack
	rs := m.RSt
	pc, sp, rp := m.PC, m.SP, m.RP
	steps := m.Steps
	limit := m.maxSteps()

	// sync spills the locals back into the machine, for error paths
	// and at halt.
	sync := func() {
		m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps
	}

	for {
		// Unverified programs can send pc anywhere: off the end of an
		// unterminated program, or through a corrupt return address
		// popped by OpExit (e.g. `Lit 999; ToR; Exit`). The dispatch
		// bounds check turns every such escape into a clean error.
		if pc < 0 || pc >= len(code) {
			sync()
			return PCError(pc)
		}
		if steps >= limit {
			sync()
			// Canonicalize a super opcode to its first constituent: the
			// unquickened baseline reports that opcode at this pc.
			return m.fail(vm.CanonicalInstr(code[pc]).Op, "step limit exceeded")
		}
		ins := code[pc]
		steps++
		switch ins.Op {
		case vm.OpNop:
			pc++

		case vm.OpLit:
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpAdd:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] += st[sp-1]
			sp--
			pc++

		case vm.OpSub:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] -= st[sp-1]
			sp--
			pc++

		case vm.OpMul:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] *= st[sp-1]
			sp--
			pc++

		case vm.OpDiv:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if st[sp-1] == 0 {
				sync()
				return m.fail(ins.Op, "division by zero")
			}
			st[sp-2] = FloorDiv(st[sp-2], st[sp-1])
			sp--
			pc++

		case vm.OpMod:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if st[sp-1] == 0 {
				sync()
				return m.fail(ins.Op, "division by zero")
			}
			st[sp-2] = FloorMod(st[sp-2], st[sp-1])
			sp--
			pc++

		case vm.OpNegate:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = -st[sp-1]
			pc++

		case vm.OpAbs:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if st[sp-1] < 0 {
				st[sp-1] = -st[sp-1]
			}
			pc++

		case vm.OpMin:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if st[sp-1] < st[sp-2] {
				st[sp-2] = st[sp-1]
			}
			sp--
			pc++

		case vm.OpMax:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if st[sp-1] > st[sp-2] {
				st[sp-2] = st[sp-1]
			}
			sp--
			pc++

		case vm.OpAnd:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] &= st[sp-1]
			sp--
			pc++

		case vm.OpOr:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] |= st[sp-1]
			sp--
			pc++

		case vm.OpXor:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] ^= st[sp-1]
			sp--
			pc++

		case vm.OpInvert:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = ^st[sp-1]
			pc++

		case vm.OpLshift:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = ShiftLeft(st[sp-2], st[sp-1])
			sp--
			pc++

		case vm.OpRshift:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = ShiftRight(st[sp-2], st[sp-1])
			sp--
			pc++

		case vm.OpOnePlus:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1]++
			pc++

		case vm.OpOneMinus:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1]--
			pc++

		case vm.OpTwoStar:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] <<= 1
			pc++

		case vm.OpTwoSlash:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] >>= 1
			pc++

		case vm.OpCells:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] *= vm.CellSize
			pc++

		case vm.OpLitAdd:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] += ins.Arg
			pc++

		case vm.OpEq:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] == st[sp-1])
			sp--
			pc++

		case vm.OpNe:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] != st[sp-1])
			sp--
			pc++

		case vm.OpLt:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] < st[sp-1])
			sp--
			pc++

		case vm.OpGt:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] > st[sp-1])
			sp--
			pc++

		case vm.OpLe:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] <= st[sp-1])
			sp--
			pc++

		case vm.OpGe:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(st[sp-2] >= st[sp-1])
			sp--
			pc++

		case vm.OpULt:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = Flag(uint64(st[sp-2]) < uint64(st[sp-1]))
			sp--
			pc++

		case vm.OpZeroEq:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = Flag(st[sp-1] == 0)
			pc++

		case vm.OpZeroNe:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = Flag(st[sp-1] != 0)
			pc++

		case vm.OpZeroLt:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = Flag(st[sp-1] < 0)
			pc++

		case vm.OpZeroGt:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1] = Flag(st[sp-1] > 0)
			pc++

		case vm.OpDup:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = st[sp-1]
			sp++
			pc++

		case vm.OpDrop:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			sp--
			pc++

		case vm.OpSwap:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-1], st[sp-2] = st[sp-2], st[sp-1]
			pc++

		case vm.OpOver:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = st[sp-2]
			sp++
			pc++

		case vm.OpRot:
			if sp < 3 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-3], st[sp-2], st[sp-1] = st[sp-2], st[sp-1], st[sp-3]
			pc++

		case vm.OpMinusRot:
			if sp < 3 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-3], st[sp-2], st[sp-1] = st[sp-1], st[sp-3], st[sp-2]
			pc++

		case vm.OpNip:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			st[sp-2] = st[sp-1]
			sp--
			pc++

		case vm.OpTuck:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = st[sp-1]
			st[sp-1] = st[sp-2]
			st[sp-2] = st[sp]
			sp++
			pc++

		case vm.OpTwoDup:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if sp+2 > len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = st[sp-2]
			st[sp+1] = st[sp-1]
			sp += 2
			pc++

		case vm.OpTwoDrop:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			sp -= 2
			pc++

		case vm.OpToR:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if rp == len(rs) {
				sync()
				return m.fail(ins.Op, "return stack overflow")
			}
			rs[rp] = st[sp-1]
			rp++
			sp--
			pc++

		case vm.OpRFrom:
			if rp < 1 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = rs[rp-1]
			sp++
			rp--
			pc++

		case vm.OpRFetch:
			if rp < 1 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = rs[rp-1]
			sp++
			pc++

		case vm.OpFetch:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			addr := st[sp-1]
			x, ok := m.CellAt(addr)
			if !ok {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			st[sp-1] = x
			pc++

		case vm.OpStore:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if !m.SetCellAt(st[sp-1], st[sp-2]) {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			sp -= 2
			pc++

		case vm.OpCFetch:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			c, ok := m.ByteAt(st[sp-1])
			if !ok {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			st[sp-1] = vm.Cell(c)
			pc++

		case vm.OpCStore:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if !m.SetByteAt(st[sp-1], st[sp-2]) {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			sp -= 2
			pc++

		case vm.OpPlusStore:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			addr := st[sp-1]
			x, ok := m.CellAt(addr)
			if !ok || !m.SetCellAt(addr, x+st[sp-2]) {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			sp -= 2
			pc++

		case vm.OpBranch:
			pc = int(ins.Arg)

		case vm.OpBranchZero:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			sp--
			if st[sp] == 0 {
				pc = int(ins.Arg)
			} else {
				pc++
			}

		case vm.OpCall:
			if rp == len(rs) {
				sync()
				return m.fail(ins.Op, "return stack overflow")
			}
			rs[rp] = vm.Cell(pc + 1)
			rp++
			pc = int(ins.Arg)

		case vm.OpExit:
			if rp < 1 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			rp--
			pc = int(rs[rp])

		case vm.OpHalt:
			sync()
			return nil

		case vm.OpDo:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if rp+2 > len(rs) {
				sync()
				return m.fail(ins.Op, "return stack overflow")
			}
			rs[rp] = st[sp-2]   // limit
			rs[rp+1] = st[sp-1] // index
			rp += 2
			sp -= 2
			pc++

		case vm.OpLoop:
			if rp < 2 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			rs[rp-1]++
			if rs[rp-1] == rs[rp-2] {
				rp -= 2
				pc++
			} else {
				pc = int(ins.Arg)
			}

		case vm.OpPlusLoop:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			if rp < 2 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			n := st[sp-1]
			sp--
			old := rs[rp-1] - rs[rp-2]
			rs[rp-1] += n
			now := rs[rp-1] - rs[rp-2]
			if (old < 0) != (now < 0) {
				rp -= 2
				pc++
			} else {
				pc = int(ins.Arg)
			}

		case vm.OpI:
			if rp < 1 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = rs[rp-1]
			sp++
			pc++

		case vm.OpJ:
			if rp < 3 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = rs[rp-3]
			sp++
			pc++

		case vm.OpUnloop:
			if rp < 2 {
				sync()
				return m.fail(ins.Op, "return stack underflow")
			}
			rp -= 2
			pc++

		case vm.OpEmit:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			m.Out.WriteByte(byte(st[sp-1]))
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				sync()
				return m.fail(ins.Op, MsgOutputLimit)
			}
			sp--
			pc++

		case vm.OpDot:
			if sp < 1 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			m.writeDot(st[sp-1])
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				sync()
				return m.fail(ins.Op, MsgOutputLimit)
			}
			sp--
			pc++

		case vm.OpType:
			if sp < 2 {
				sync()
				return m.fail(ins.Op, "stack underflow")
			}
			addr, n := st[sp-2], st[sp-1]
			if !m.RangeOK(addr, n) {
				sync()
				return m.fail(ins.Op, "memory access out of range")
			}
			m.Out.Write(m.Mem[addr : addr+n])
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				sync()
				return m.fail(ins.Op, MsgOutputLimit)
			}
			sp -= 2
			pc++

		case vm.OpDepth:
			if sp == len(st) {
				sync()
				return m.fail(ins.Op, "stack overflow")
			}
			st[sp] = vm.Cell(sp)
			sp++
			pc++

		// Quickening superinstructions (vm.Quicken). Each case first
		// tries the fused fast path — all constituents in one dispatch —
		// guarded on: step-budget room for every constituent, the
		// in-place code tail matching the expansion (arbitrary bytecode
		// may plant a super over a garbage tail), combined stack
		// headroom, and every possible failure pre-checked before any
		// state commits. Fused execution counts one step per constituent
		// so budget sweeps stay baseline-equal. If any guard fails the
		// case DE-FUSES: it executes exactly the first constituent
		// (reporting that constituent's opcode on error), and the next
		// dispatch replays the in-place tail at baseline — observably
		// identical to the unquickened program in every path.

		case vm.OpQLitFetch: // lit;@
			if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpFetch && sp < len(st) {
				if x, ok := m.CellAt(ins.Arg); ok {
					st[sp] = x
					sp++
					steps++
					pc += 2
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitFetchAdd: // lit;@;+
			if steps+1 < limit && pc+3 <= len(code) &&
				code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd &&
				sp >= 1 && sp < len(st) {
				if x, ok := m.CellAt(ins.Arg); ok {
					st[sp-1] += x
					steps += 2
					pc += 3
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitLitFetchAdd: // lit;lit;@;+
			if steps+2 < limit && pc+4 <= len(code) &&
				code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpFetch && code[pc+3].Op == vm.OpAdd &&
				sp+2 <= len(st) {
				if x, ok := m.CellAt(code[pc+1].Arg); ok {
					st[sp] = ins.Arg + x
					sp++
					steps += 3
					pc += 4
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitFetchAddCFetch: // lit;@;+;c@
			if steps+2 < limit && pc+4 <= len(code) &&
				code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpAdd && code[pc+3].Op == vm.OpCFetch &&
				sp >= 1 && sp < len(st) {
				if base, ok := m.CellAt(ins.Arg); ok {
					if b, ok := m.ByteAt(st[sp-1] + base); ok {
						st[sp-1] = vm.Cell(b)
						steps += 3
						pc += 4
						continue
					}
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitFetchLitGe: // lit;@;lit;>=
			if steps+2 < limit && pc+4 <= len(code) &&
				code[pc+1].Op == vm.OpFetch && code[pc+2].Op == vm.OpLit && code[pc+3].Op == vm.OpGe &&
				sp+2 <= len(st) {
				if x, ok := m.CellAt(ins.Arg); ok {
					st[sp] = Flag(x >= code[pc+2].Arg)
					sp++
					steps += 3
					pc += 4
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitPlusStore: // lit;+!
			if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpPlusStore &&
				sp >= 1 && sp < len(st) {
				if x, ok := m.CellAt(ins.Arg); ok {
					m.SetCellAt(ins.Arg, x+st[sp-1])
					sp--
					steps++
					pc += 2
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQLitLitPlusStore: // lit;lit;+!
			if steps+1 < limit && pc+3 <= len(code) &&
				code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpPlusStore &&
				sp+2 <= len(st) {
				if x, ok := m.CellAt(code[pc+1].Arg); ok {
					m.SetCellAt(code[pc+1].Arg, x+ins.Arg)
					steps += 2
					pc += 3
					continue
				}
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQAddCFetch: // +;c@
			if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpCFetch && sp >= 2 {
				if b, ok := m.ByteAt(st[sp-2] + st[sp-1]); ok {
					st[sp-2] = vm.Cell(b)
					sp--
					steps++
					pc += 2
					continue
				}
			}
			if sp < 2 {
				sync()
				return m.fail(vm.OpAdd, "stack underflow")
			}
			st[sp-2] += st[sp-1]
			sp--
			pc++

		case vm.OpQLitEq: // lit;=
			if steps < limit && pc+2 <= len(code) && code[pc+1].Op == vm.OpEq &&
				sp >= 1 && sp < len(st) {
				st[sp-1] = Flag(st[sp-1] == ins.Arg)
				steps++
				pc += 2
				continue
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		case vm.OpQDupLitEq: // dup;lit;=
			if steps+1 < limit && pc+3 <= len(code) &&
				code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpEq &&
				sp >= 1 && sp+2 <= len(st) {
				st[sp] = Flag(st[sp-1] == code[pc+1].Arg)
				sp++
				steps += 2
				pc += 3
				continue
			}
			if sp < 1 {
				sync()
				return m.fail(vm.OpDup, "stack underflow")
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpDup, "stack overflow")
			}
			st[sp] = st[sp-1]
			sp++
			pc++

		case vm.OpQSwapLitRshiftSwap: // swap;lit;rshift;swap
			if steps+2 < limit && pc+4 <= len(code) &&
				code[pc+1].Op == vm.OpLit && code[pc+2].Op == vm.OpRshift && code[pc+3].Op == vm.OpSwap &&
				sp >= 2 && sp < len(st) {
				st[sp-2] = ShiftRight(st[sp-2], code[pc+1].Arg)
				steps += 3
				pc += 4
				continue
			}
			if sp < 2 {
				sync()
				return m.fail(vm.OpSwap, "stack underflow")
			}
			st[sp-1], st[sp-2] = st[sp-2], st[sp-1]
			pc++

		case vm.OpQLitLshiftOverLit: // lit;lshift;over;lit
			if steps+2 < limit && pc+4 <= len(code) &&
				code[pc+1].Op == vm.OpLshift && code[pc+2].Op == vm.OpOver && code[pc+3].Op == vm.OpLit &&
				sp >= 2 && sp+2 <= len(st) {
				a := st[sp-2]
				st[sp-1] = ShiftLeft(st[sp-1], ins.Arg)
				st[sp] = a
				st[sp+1] = code[pc+3].Arg
				sp += 2
				steps += 3
				pc += 4
				continue
			}
			if sp == len(st) {
				sync()
				return m.fail(vm.OpLit, "stack overflow")
			}
			st[sp] = ins.Arg
			sp++
			pc++

		default:
			sync()
			return m.fail(ins.Op, "invalid opcode")
		}
	}
}

// Flag converts a Go bool to a Forth flag: -1 for true, 0 for false.
// Like FloorDiv, the definition lives in the vm package so constant
// folding and translation validation share it.
func Flag(b bool) vm.Cell { return vm.Flag(b) }

// ShiftLeft implements OpLshift: the shift count is masked to the cell
// width, as on most hardware.
func ShiftLeft(a, u vm.Cell) vm.Cell { return vm.ShiftLeft(a, u) }

// ShiftRight implements OpRshift (logical shift).
func ShiftRight(a, u vm.Cell) vm.Cell { return vm.ShiftRight(a, u) }
