package gen

import (
	"fmt"
	"strings"

	"stackcache/internal/vm"
)

// opcode emits the body of one (state, opcode) case: the state-
// specialized implementation the paper replicates the interpreter for.
func (g *generator) opcode(c int, op vm.Opcode) {
	eff := vm.EffectOf(op)
	switch op {
	case vm.OpQLitFetch, vm.OpQLitFetchAdd, vm.OpQLitLitFetchAdd,
		vm.OpQLitFetchAddCFetch, vm.OpQLitFetchLitGe, vm.OpQLitPlusStore,
		vm.OpQLitLitPlusStore, vm.OpQAddCFetch, vm.OpQLitEq, vm.OpQDupLitEq,
		vm.OpQSwapLitRshiftSwap, vm.OpQLitLshiftOverLit:
		g.super(c, op)
	case vm.OpNop:
		g.p("pc++")
		g.gotoState(c)
	case vm.OpLit:
		g.push(c, "ins.Arg")
	case vm.OpLitAdd:
		g.unary(c, "%s + ins.Arg")
	case vm.OpAdd:
		g.binary(c, "%s + %s", false)
	case vm.OpSub:
		g.binary(c, "%s - %s", false)
	case vm.OpMul:
		g.binary(c, "%s * %s", false)
	case vm.OpDiv:
		g.binary(c, "interp.FloorDiv(%s, %s)", true)
	case vm.OpMod:
		g.binary(c, "interp.FloorMod(%s, %s)", true)
	case vm.OpNegate:
		g.unary(c, "-%s")
	case vm.OpAbs:
		g.unaryStmt(c, func(r string) string {
			return fmt.Sprintf("if %s < 0 { %s = -%s }", r, r, r)
		})
	case vm.OpMin:
		g.binary(c, "minCell(%s, %s)", false)
	case vm.OpMax:
		g.binary(c, "maxCell(%s, %s)", false)
	case vm.OpAnd:
		g.binary(c, "%s & %s", false)
	case vm.OpOr:
		g.binary(c, "%s | %s", false)
	case vm.OpXor:
		g.binary(c, "%s ^ %s", false)
	case vm.OpInvert:
		g.unary(c, "^%s")
	case vm.OpLshift:
		g.binary(c, "interp.ShiftLeft(%s, %s)", false)
	case vm.OpRshift:
		g.binary(c, "interp.ShiftRight(%s, %s)", false)
	case vm.OpOnePlus:
		g.unary(c, "%s + 1")
	case vm.OpOneMinus:
		g.unary(c, "%s - 1")
	case vm.OpTwoStar:
		g.unary(c, "%s << 1")
	case vm.OpTwoSlash:
		g.unary(c, "%s >> 1")
	case vm.OpCells:
		g.unary(c, "%s * vm.CellSize")

	case vm.OpEq:
		g.binary(c, "flag(%s == %s)", false)
	case vm.OpNe:
		g.binary(c, "flag(%s != %s)", false)
	case vm.OpLt:
		g.binary(c, "flag(%s < %s)", false)
	case vm.OpGt:
		g.binary(c, "flag(%s > %s)", false)
	case vm.OpLe:
		g.binary(c, "flag(%s <= %s)", false)
	case vm.OpGe:
		g.binary(c, "flag(%s >= %s)", false)
	case vm.OpULt:
		g.binary(c, "flag(uint64(%s) < uint64(%s))", false)
	case vm.OpZeroEq:
		g.unary(c, "flag(%s == 0)")
	case vm.OpZeroNe:
		g.unary(c, "flag(%s != 0)")
	case vm.OpZeroLt:
		g.unary(c, "flag(%s < 0)")
	case vm.OpZeroGt:
		g.unary(c, "flag(%s > 0)")

	case vm.OpDup, vm.OpDrop, vm.OpSwap, vm.OpOver, vm.OpRot,
		vm.OpMinusRot, vm.OpNip, vm.OpTuck, vm.OpTwoDup, vm.OpTwoDrop:
		g.manip(c, eff)

	case vm.OpToR:
		args, rem := g.args(c, 1)
		g.p("if rp == len(rs) { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack overflow", rem)
		g.p("rs[rp] = %s", args[0])
		g.p("rp++")
		g.p("pc++")
		g.gotoState(rem)
	case vm.OpRFrom:
		g.p("if rp < 1 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.p("rp--")
		g.push(c, "rs[rp]")
	case vm.OpRFetch:
		g.p("if rp < 1 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.push(c, "rs[rp-1]")

	case vm.OpFetch:
		g.unaryStmt(c, func(r string) string {
			return fmt.Sprintf(
				"t0, ok = m.CellAt(%s)\nif !ok { errOp, errMsg = ins.Op, %q; goto fail%d }\n%s = t0",
				r, "memory access out of range", c, r)
		})
	case vm.OpCFetch:
		g.unaryStmt(c, func(r string) string {
			return fmt.Sprintf(
				"bv, ok = m.ByteAt(%s)\nif !ok { errOp, errMsg = ins.Op, %q; goto fail%d }\n%s = vm.Cell(bv)",
				r, "memory access out of range", c, r)
		})
	case vm.OpStore:
		g.consume2(c, func(a, b string, rem int) string {
			return fmt.Sprintf("if !m.SetCellAt(%s, %s) { errOp, errMsg = ins.Op, %q; goto fail%d }",
				b, a, "memory access out of range", rem)
		})
	case vm.OpCStore:
		g.consume2(c, func(a, b string, rem int) string {
			return fmt.Sprintf("if !m.SetByteAt(%s, %s) { errOp, errMsg = ins.Op, %q; goto fail%d }",
				b, a, "memory access out of range", rem)
		})
	case vm.OpPlusStore:
		g.consume2(c, func(a, b string, rem int) string {
			return fmt.Sprintf(
				"t0, ok = m.CellAt(%s)\nif !ok || !m.SetCellAt(%s, t0+%s) { errOp, errMsg = ins.Op, %q; goto fail%d }",
				b, b, a, "memory access out of range", rem)
		})

	case vm.OpBranch:
		g.p("pc = int(ins.Arg)")
		g.gotoState(c)
	case vm.OpBranchZero:
		args, rem := g.args(c, 1)
		g.p("if %s == 0 { pc = int(ins.Arg) } else { pc++ }", args[0])
		g.gotoState(rem)
	case vm.OpCall:
		g.p("if rp == len(rs) { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack overflow", c)
		g.p("rs[rp] = vm.Cell(pc + 1)")
		g.p("rp++")
		g.p("pc = int(ins.Arg)")
		g.gotoState(c)
	case vm.OpExit:
		g.p("if rp < 1 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.p("rp--")
		g.p("pc = int(rs[rp])")
		g.gotoState(c)
	case vm.OpHalt:
		g.p("goto halt%d", c)

	case vm.OpDo:
		g.consume2(c, func(a, b string, rem int) string {
			return fmt.Sprintf(
				"if rp+2 > len(rs) { errOp, errMsg = ins.Op, %q; goto fail%d }\nrs[rp] = %s\nrs[rp+1] = %s\nrp += 2",
				"return stack overflow", rem, a, b)
		})
	case vm.OpLoop:
		g.p("if rp < 2 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.p("rs[rp-1]++")
		g.p("if rs[rp-1] == rs[rp-2] { rp -= 2; pc++ } else { pc = int(ins.Arg) }")
		g.gotoState(c)
	case vm.OpPlusLoop:
		args, rem := g.args(c, 1)
		g.p("if rp < 2 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", rem)
		g.p("t0 = rs[rp-1] - rs[rp-2]")
		g.p("rs[rp-1] += %s", args[0])
		g.p("t1 = rs[rp-1] - rs[rp-2]")
		g.p("if (t0 < 0) != (t1 < 0) { rp -= 2; pc++ } else { pc = int(ins.Arg) }")
		g.gotoState(rem)
	case vm.OpI:
		g.p("if rp < 1 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.push(c, "rs[rp-1]")
	case vm.OpJ:
		g.p("if rp < 3 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.push(c, "rs[rp-3]")
	case vm.OpUnloop:
		g.p("if rp < 2 { errOp, errMsg = ins.Op, %q; goto fail%d }", "return stack underflow", c)
		g.p("rp -= 2")
		g.p("pc++")
		g.gotoState(c)

	case vm.OpEmit:
		args, rem := g.args(c, 1)
		g.p("m.Out.WriteByte(byte(%s))", args[0])
		g.checkOut(rem)
		g.p("pc++")
		g.gotoState(rem)
	case vm.OpDot:
		args, rem := g.args(c, 1)
		g.p("m.Out.WriteString(strconv.FormatInt(%s, 10))", args[0])
		g.p("m.Out.WriteByte(' ')")
		g.checkOut(rem)
		g.p("pc++")
		g.gotoState(rem)
	case vm.OpType:
		g.consume2(c, func(a, b string, rem int) string {
			// m.RangeOK rather than addr+len > cap: the addition wraps
			// negative for values near MaxInt64.
			return fmt.Sprintf(
				"if !m.RangeOK(%s, %s) { errOp, errMsg = ins.Op, %q; goto fail%d }\nm.Out.Write(m.Mem[%s : %s+%s])\nif m.MaxOut > 0 && m.Out.Len() > m.MaxOut { errOp, errMsg = ins.Op, interp.MsgOutputLimit; goto fail%d }",
				a, b, "memory access out of range", rem, a, a, b, rem)
		})
	case vm.OpDepth:
		// The depth is computed from sp *after* any spill, with the
		// cached count adjusted by the spill amount, so no temporary
		// has to stay live across the spill code. (A register-resident
		// temporary crossing the spill+goto miscompiles under the Go
		// 1.24 optimizer — the register ends up holding a jump-table
		// address; verified against -gcflags='-N -l'.)
		if c+1 <= g.n {
			g.p("%s = vm.Cell(sp + %d)", reg(c), c)
			g.p("pc++")
			g.gotoState(c + 1)
		} else {
			f := g.f
			s := c + 1 - f
			g.p("if sp+%d > len(st) { errOp, errMsg = ins.Op, %q; goto fail%d }", s, "stack overflow", c)
			g.spill(s)
			for i := 0; i < c-s; i++ {
				g.p("%s = %s", reg(i), reg(i+s))
			}
			g.p("%s = vm.Cell(sp + %d)", reg(f-1), c-s)
			g.p("pc++")
			g.gotoState(f)
		}
	default:
		g.p("errOp, errMsg = ins.Op, %q; goto fail%d", "unhandled opcode", c)
	}
}

// super emits the body of one (state, superinstruction) case. The
// fused fast path is emitted only in cache states where the whole
// sequence runs register-resident: entry depth covers the combined
// borrow and the combined rise fits the register file. In exactly
// those states the baseline constituent-by-constituent execution never
// touches the memory stack either, so the fused path needs no stack
// bounds checks — the guards that remain are the step budget (one
// step per constituent), the code tail matching the expansion, and
// memory-range pre-checks before any commit. In every other state, or
// when any guard fails, the case de-fuses: ins is canonicalized to the
// first constituent and its ordinary body runs, leaving the in-place
// tail to replay baseline execution (and report baseline errors)
// exactly.
func (g *generator) super(c int, op vm.Opcode) {
	seq := vm.Expansion(op)
	n := len(seq)
	borrow, rise := vm.SuperDepths(op)
	if c >= borrow && c+rise <= g.n {
		cond := make([]string, 0, n+1)
		// The dispatch head already consumed one step; the fused commit
		// accounts the remaining n-1, so the budget needs steps+n-2 <
		// limit — the exact point the baseline's k-th dispatch check
		// would fail.
		switch n {
		case 2:
			cond = append(cond, "steps < limit")
		default:
			cond = append(cond, fmt.Sprintf("steps+%d < limit", n-2))
		}
		cond = append(cond, fmt.Sprintf("pc+%d <= len(code)", n))
		for k := 1; k < n; k++ {
			cond = append(cond, fmt.Sprintf("code[pc+%d].Op == vm.%s", k, opConstName(seq[k])))
		}
		g.p("if %s {", strings.Join(cond, " && "))
		g.superBody(c, op, n)
		g.p("}")
	}
	g.p("ins.Op = vm.%s", opConstName(seq[0]))
	g.opcode(c, seq[0])
}

// superBody emits the register-resident fused execution for state c
// (guards for state fit already emitted by super): memory pre-checks,
// then the committed register writes, step accounting and pc advance.
func (g *generator) superBody(c int, op vm.Opcode, n int) {
	commit := func(newState int) {
		g.p("steps += %d", n-1)
		g.p("pc += %d", n)
		g.gotoState(newState)
	}
	switch op {
	case vm.OpQLitFetch: // lit @  ( -- cell[arg] )
		g.p("t0, ok = m.CellAt(ins.Arg)")
		g.p("if ok {")
		g.p("%s = t0", reg(c))
		commit(c + 1)
		g.p("}")
	case vm.OpQLitFetchAdd: // lit @ +  ( a -- a+cell[arg] )
		g.p("t0, ok = m.CellAt(ins.Arg)")
		g.p("if ok {")
		g.p("%s += t0", reg(c-1))
		commit(c)
		g.p("}")
	case vm.OpQLitLitFetchAdd: // lit lit @ +  ( -- arg+cell[arg1] )
		g.p("t0, ok = m.CellAt(code[pc+1].Arg)")
		g.p("if ok {")
		g.p("%s = ins.Arg + t0", reg(c))
		commit(c + 1)
		g.p("}")
	case vm.OpQLitFetchAddCFetch: // lit @ + c@  ( a -- byte[a+cell[arg]] )
		g.p("t0, ok = m.CellAt(ins.Arg)")
		g.p("if ok {")
		g.p("bv, ok = m.ByteAt(%s + t0)", reg(c-1))
		g.p("if ok {")
		g.p("%s = vm.Cell(bv)", reg(c-1))
		commit(c)
		g.p("}")
		g.p("}")
	case vm.OpQLitFetchLitGe: // lit @ lit >=  ( -- flag(cell[arg]>=arg2) )
		g.p("t0, ok = m.CellAt(ins.Arg)")
		g.p("if ok {")
		g.p("%s = flag(t0 >= code[pc+2].Arg)", reg(c))
		commit(c + 1)
		g.p("}")
	case vm.OpQLitPlusStore: // lit +!  ( n -- )  mem[arg] += n
		g.p("t0, ok = m.CellAt(ins.Arg)")
		g.p("if ok {")
		g.p("m.SetCellAt(ins.Arg, t0+%s)", reg(c-1))
		commit(c - 1)
		g.p("}")
	case vm.OpQLitLitPlusStore: // lit lit +!  ( -- )  mem[arg1] += arg
		g.p("t0, ok = m.CellAt(code[pc+1].Arg)")
		g.p("if ok {")
		g.p("m.SetCellAt(code[pc+1].Arg, t0+ins.Arg)")
		commit(c)
		g.p("}")
	case vm.OpQAddCFetch: // + c@  ( a b -- byte[a+b] )
		g.p("bv, ok = m.ByteAt(%s + %s)", reg(c-2), reg(c-1))
		g.p("if ok {")
		g.p("%s = vm.Cell(bv)", reg(c-2))
		commit(c - 1)
		g.p("}")
	case vm.OpQLitEq: // lit =  ( a -- flag(a==arg) )
		g.p("%s = flag(%s == ins.Arg)", reg(c-1), reg(c-1))
		commit(c)
	case vm.OpQDupLitEq: // dup lit =  ( a -- a flag(a==arg1) )
		g.p("%s = flag(%s == code[pc+1].Arg)", reg(c), reg(c-1))
		commit(c + 1)
	case vm.OpQSwapLitRshiftSwap: // swap lit rshift swap  ( a b -- a>>arg1 b )
		g.p("%s = interp.ShiftRight(%s, code[pc+1].Arg)", reg(c-2), reg(c-2))
		commit(c)
	case vm.OpQLitLshiftOverLit: // lit lshift over lit  ( a b -- a b<<arg a arg3 )
		g.p("%s = %s", reg(c), reg(c-2))
		g.p("%s = interp.ShiftLeft(%s, ins.Arg)", reg(c-1), reg(c-1))
		g.p("%s = code[pc+3].Arg", reg(c+1))
		commit(c + 2)
	default:
		panic("gen: no fused body for " + op.String())
	}
}

// gotoState emits the jump to the interpreter copy for the new state.
func (g *generator) gotoState(c int) { g.p("goto state%d", c) }

// spill emits the copy of the s deepest cached registers to the memory
// stack, guarded by the overflow check the caller just emitted.
func (g *generator) spill(s int) {
	for i := 0; i < s; i++ {
		g.p("st[sp+%d] = %s", i, reg(i))
	}
	g.p("sp += %d", s)
}

// checkOut emits the Machine.MaxOut budget check after an
// output-writing instruction; rem is the cache state whose fail label
// flushes the surviving cached items. Like the hand-written engines,
// the budget fires after the write that crossed it, so one
// instruction's worth of overshoot is allowed.
func (g *generator) checkOut(rem int) {
	g.p("if m.MaxOut > 0 && m.Out.Len() > m.MaxOut { errOp, errMsg = ins.Op, interp.MsgOutputLimit; goto fail%d }", rem)
}

// args emits argument gathering for an instruction consuming `in`
// items in state c and returns the argument expressions (bottom-first)
// plus the cached count after consumption. Memory pops (underflow) are
// guarded and performed here; the returned st[...] expressions are
// valid immediately after.
func (g *generator) args(c, in int) ([]string, int) {
	missing := in - c
	if missing < 0 {
		missing = 0
	}
	if missing > 0 {
		g.p("if sp < %d { errOp, errMsg = ins.Op, %q; goto fail%d }", missing, "stack underflow", c)
		g.p("sp -= %d", missing)
	}
	exprs := make([]string, in)
	for j := 0; j < in; j++ {
		if j < missing {
			exprs[j] = fmt.Sprintf("st[sp+%d]", j)
		} else if missing > 0 {
			exprs[j] = reg(j - missing)
		} else {
			exprs[j] = reg(c - in + j)
		}
	}
	rem := c - in + missing
	return exprs, rem
}

// place emits result placement for `out` values (bottom-first
// expressions) on top of rem cached items, spilling per the overflow
// followup policy, then jumps to the successor state. Result
// expressions must not read the memory stack.
func (g *generator) place(rem int, outs []string) {
	m := rem + len(outs)
	if m <= g.n {
		for k, e := range outs {
			g.p("%s = %s", reg(rem+k), e)
		}
		g.p("pc++")
		g.gotoState(m)
		return
	}
	// Overflow: spill the deepest survivors, shift, place on top.
	f := g.f
	if f < len(outs) {
		f = len(outs)
	}
	s := m - f
	g.p("if sp+%d > len(st) { errOp, errMsg = ins.Op, %q; goto fail%d }", s, "stack overflow", rem)
	g.spill(s)
	for i := 0; i < rem-s; i++ {
		g.p("%s = %s", reg(i), reg(i+s))
	}
	for k, e := range outs {
		g.p("%s = %s", reg(rem-s+k), e)
	}
	g.p("pc++")
	g.gotoState(f)
}

// push emits a one-result instruction with no arguments.
func (g *generator) push(c int, expr string) {
	g.place(c, []string{expr})
}

// unary emits an in-place one-argument computation.
func (g *generator) unary(c int, exprFmt string) {
	if c >= 1 {
		r := reg(c - 1)
		g.p("%s = "+exprFmt, r, r)
		g.p("pc++")
		g.gotoState(c)
		return
	}
	g.p("if sp < 1 { errOp, errMsg = ins.Op, %q; goto fail0 }", "stack underflow")
	g.p("sp--")
	g.place(0, []string{fmt.Sprintf(exprFmt, "st[sp]")})
}

// unaryStmt emits a one-argument instruction whose body is a statement
// operating on the register holding the argument/result.
func (g *generator) unaryStmt(c int, body func(r string) string) {
	if c >= 1 {
		g.p("%s", body(reg(c-1)))
		g.p("pc++")
		g.gotoState(c)
		return
	}
	// Load the argument into r0 first; the result stays there.
	g.p("if sp < 1 { errOp, errMsg = ins.Op, %q; goto fail0 }", "stack underflow")
	g.p("sp--")
	g.p("r0 = st[sp]")
	g.p("%s", body("r0"))
	g.p("pc++")
	g.gotoState(1)
}

// binary emits a two-argument, one-result computation. checkZero adds
// a division-by-zero guard on the top argument.
func (g *generator) binary(c int, exprFmt string, checkZero bool) {
	args, rem := g.args(c, 2)
	if checkZero {
		g.p("if %s == 0 { errOp, errMsg = ins.Op, %q; goto fail%d }", args[1], "division by zero", rem)
	}
	g.place(rem, []string{fmt.Sprintf(exprFmt, args[0], args[1])})
}

// consume2 emits a two-argument, zero-result instruction whose body is
// produced by the callback (a = second, b = top).
func (g *generator) consume2(c int, body func(a, b string, rem int) string) {
	args, rem := g.args(c, 2)
	g.p("%s", body(args[0], args[1], rem))
	g.p("pc++")
	g.gotoState(rem)
}

// manip emits a stack-manipulation instruction: capture the arguments
// in temporaries, then place the mapped copies.
func (g *generator) manip(c int, eff vm.Effect) {
	args, rem := g.args(c, eff.In)
	// Inputs that are actually copied somewhere; dropped inputs (drop,
	// 2drop, nip's lower cell) are never touched.
	used := make([]bool, eff.In)
	for _, src := range eff.Map {
		used[eff.In-1-src] = true
	}
	outs := make([]string, eff.Out)
	for k, src := range eff.Map {
		// Output k (0 = top) copies input src (0 = top); bottom-first
		// index out-1-k copies args[in-1-src].
		outs[eff.Out-1-k] = fmt.Sprintf("t%d", eff.In-1-src)
	}

	m := rem + eff.Out
	if m <= g.n {
		// Capture, then place: no spill, so the temporaries bridge
		// only plain assignments.
		for j, e := range args {
			if used[j] {
				g.p("t%d = %s", j, e)
			}
		}
		for k, e := range outs {
			g.p("%s = %s", reg(rem+k), e)
		}
		g.p("pc++")
		g.gotoState(m)
		return
	}

	// Overflow: spill and shift *first*, then capture the (shifted)
	// arguments — no temporary may stay live across the spill code
	// (see the OpDepth comment on the Go 1.24 optimizer). An
	// overflowing manipulation always has all arguments in registers:
	// underflow (memory args) implies the post-state fits.
	f := g.f
	if f < eff.Out {
		f = eff.Out
	}
	s := m - f
	g.p("if sp+%d > len(st) { errOp, errMsg = ins.Op, %q; goto fail%d }", s, "stack overflow", c)
	g.spill(s)
	for i := 0; i < c-s; i++ {
		g.p("%s = %s", reg(i), reg(i+s))
	}
	// Arguments now live s registers lower.
	for j := range args {
		if used[j] {
			g.p("t%d = %s", j, reg(c-eff.In+j-s))
		}
	}
	for k, e := range outs {
		g.p("%s = %s", reg(rem-s+k), e)
	}
	g.p("pc++")
	g.gotoState(f)
}

// failLabel emits the error epilogue for state c: flush the cached
// items, synchronize the machine and return a runtime error.
func (g *generator) failLabel(c int) {
	g.p("fail%d:", c)
	if c > 0 {
		g.p("if sp+%d <= len(st) {", c)
		for i := 0; i < c; i++ {
			g.p("st[sp+%d] = %s", i, reg(i))
		}
		g.p("sp += %d", c)
		g.p("}")
	}
	g.p("m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps")
	g.p("return &interp.RuntimeError{PC: pc, Op: errOp, Msg: errMsg}")
	g.p("")
}

// haltLabel emits the normal epilogue for state c.
func (g *generator) haltLabel(c int) {
	g.p("halt%d:", c)
	if c > 0 {
		g.p("if sp+%d > len(st) { errOp, errMsg = ins.Op, %q; goto fail0 }", c, "stack overflow")
		for i := 0; i < c; i++ {
			g.p("st[sp+%d] = %s", i, reg(i))
		}
		g.p("sp += %d", c)
	}
	g.p("m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, steps")
	g.p("return nil")
	g.p("")
}
