package compiled

// Lowering: program → basic blocks → closures. This file holds the
// block discovery, the per-variant scaffolding, and the fully checked
// single-step closures that back every pc. The fused fast paths are
// built in fuse.go; they bail to the single-step closures whenever a
// block's entry precheck cannot promise the whole block will execute
// without a stack or step-budget error, and dynamic jumps into the
// middle of a block (a corrupt return address popped by OpExit) land on
// them directly. A single step runs the switch interpreter itself — the
// baseline every engine is differenced against — under a one-step
// budget.

import (
	"strconv"

	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

type buildMode int

const (
	// buildChecked emits block-entry depth prechecks computed from the
	// instructions' static effects; blocks that cannot prove headroom
	// for this run fall back to per-instruction checked execution.
	buildChecked buildMode = iota
	// buildElided emits no stack-depth checks anywhere on the fast
	// path: the program's vm.Analyze facts proved every reachable depth
	// in bounds, so codegen deletes the checks instead of gating them.
	buildElided
)

// variant is one compiled code body: a continuation table with an entry
// closure for every pc (fused block code at block leaders, single-step
// closures elsewhere), plus the one-past-the-end slot that reports the
// baseline's "program counter out of range".
type variant struct {
	code []vm.Instr
	cont []op // len n+1; cont[n] reports PCError(n)
	g    []guard
	gc   []guardConsts // parallel to g: each guard's immediate slots
	n    int

	// elided mirrors the build mode: in the elided variant every
	// guard's depth bounds are zero, so the transfer loop skips
	// evaluating them — vm.Analyze already proved the depths fit.
	elided bool

	stats Stats
}

// guard is the block-entry fast path of a lowered block, tabulated per
// leader pc so a predecessor's control transfer can run the entry
// precheck inline and either jump straight to the block's first
// fast-path closure (kFirst) or — for the control-transfer block
// shapes that dominate Forth-style code — execute the whole block
// right inside the transfer loop (kCall..kDup0Br) with no dispatch at
// all. kNone marks pcs with no fast entry (non-leaders); transfers
// then fall back to the cont table, whose guarded entry closures
// handle bail-out and mid-block entry exactly. In the elided variant
// the depth fields are zero — vacuously true — leaving only the
// step-budget charge.
// The struct is deliberately packed small: the transfer loop loads one
// guard per executed block, so the table's footprint is hot-path
// footprint. Blocks whose depth needs overflow uint8, whose static
// targets fall outside [0, n], or whose constant memory addresses
// don't fit uint16 simply stay kNone or kFirst — the cont table
// handles them exactly, including the out-of-range pc error with the
// original target value.
type guard struct {
	first                      op     // kFirst only
	k                          int32  // block step count
	a, b                       int32  // transfer targets (shape-specific)
	memHi                      uint16 // bytes of memory the pre-ops touch
	needLow, hi, rneedLow, rhi uint8
	kind                       guardKind
	opc                        vm.Opcode // comparison/test op for k*0Br kinds
	hasPre                     uint8     // count of gc.preF* slots to run before the terminator
	spAdj, rpAdj               int8      // leading pure stack motion, applied before the pres
}

// guardConsts is the cold half of a guard: the composed prefix
// closure (hasPre) and the kLitCmp0Br comparison constant. It lives
// in a parallel array so the hot guard stays 32 bytes — two per cache
// line; only transfers that run a prefix or a lit-compare touch this
// table.
type guardConsts struct {
	// preF..preF3 are the block's prefix closures; hasPre says how many
	// are set. Direct slots instead of one composed wrapper: the
	// transfer loop calls each in turn, so a two-closure prefix costs
	// two indirect calls, not three.
	preF, preF2, preF3 preOp
	c                  vm.Cell
}

// preOp is one composed inline-prefix closure: the infallible leading
// instructions of a guard-form block, fused at build time. Entry
// gating (depth bounds, memHi, step budget) has already passed when
// it runs, so bodies carry no checks; constants are captured, so the
// hot path re-reads nothing.
type preOp func(s *state, sp, rp int) (int, int)

type guardKind uint8

const (
	kNone          guardKind = iota // no fast entry; use cont[t]
	kFirst                          // generic block: check, charge, run first
	kCall                           // [call a], b = return pc
	kExit                           // [exit]
	kBranch                         // [branch a]; also "charge and fall to a"
	k0Branch                        // [0branch a], b = fall-through
	kLoop                           // [loop a], b = fall-through
	kHalt                           // [halt], a = its pc
	kCmp0Br                         // [opc; 0branch a], b = fall-through
	kTest0Br                        // [opc; 0branch a], b = fall-through
	kDup0Br                         // [dup; 0branch a], b = fall-through
	kLitCmp0Br                      // [lit c; opc; 0branch a], b = fall-through
	kDupTest0Br                     // [dup; opc; 0branch a], b = fall-through
	kDupLitCmp0Br                   // [dup; lit c; opc; 0branch a], b = fall-through
	kRFetchTest0Br                  // [r@; opc; 0branch a], b = fall-through
)

// build lowers p into one code variant.
func build(p *vm.Program, mode buildMode) *variant {
	n := len(p.Code)
	v := &variant{code: p.Code, cont: make([]op, n+1),
		g: make([]guard, n+1), gc: make([]guardConsts, n+1), n: n,
		elided: mode == buildElided}
	v.cont[n] = endOfCode(n)
	for pc := 0; pc < n; pc++ {
		v.cont[pc] = v.stepAt(pc)
	}
	leaders := findLeaders(p)
	for pc := 0; pc < n; pc++ {
		if !leaders[pc] {
			continue
		}
		end := blockEnd(p.Code, leaders, pc)
		v.cont[pc] = v.lowerBlock(pc, end, mode)
		v.stats.Blocks++
	}
	return v
}

// findLeaders marks every pc a basic block starts at: the entry, every
// static branch/call/loop target, and the fall-through successor of
// every control (or invalid, hence block-ending) instruction.
func findLeaders(p *vm.Program) []bool {
	n := len(p.Code)
	leaders := make([]bool, n)
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			leaders[pc] = true
		}
	}
	mark(p.Entry)
	for pc, ins := range p.Code {
		if !ins.Op.Valid() {
			mark(pc + 1)
			continue
		}
		e := vm.EffectOf(ins.Op)
		if e.Control {
			mark(pc + 1)
		}
		if e.Arg == vm.ArgTarget {
			mark(int(ins.Arg))
		}
	}
	return leaders
}

// blockEnd returns the exclusive end of the straight-line block that
// starts at leader L: past the first control or invalid instruction, or
// at the next leader / end of code.
func blockEnd(code []vm.Instr, leaders []bool, L int) int {
	pc := L
	for {
		ins := code[pc]
		if !ins.Op.Valid() || vm.EffectOf(ins.Op).Control {
			return pc + 1
		}
		pc++
		if pc >= len(code) || leaders[pc] {
			return pc
		}
	}
}

// blockNeeds computes, from the static effects of a block's
// instructions, the exact conditions under which the switch baseline
// executes the whole block without a stack underflow or overflow:
// entry sp >= needLow, sp+hi <= cap, and likewise for the return
// stack. The running depth d is relative to block entry; an
// instruction's underflow check is sp+d >= In and its overflow check
// is sp+d' <= cap for the post-instruction depth d'. An invalid opcode
// ends the scan — it unconditionally errors, so nothing after it runs.
func blockNeeds(code []vm.Instr) (needLow, hi, rneedLow, rhi int) {
	d, r := 0, 0
	for _, ins := range code {
		if !ins.Op.Valid() {
			break
		}
		e := vm.EffectOf(ins.Op)
		if need := e.In - d; need > needLow {
			needLow = need
		}
		d += e.Out - e.In
		if d > hi {
			hi = d
		}
		if need := e.RIn - r; need > rneedLow {
			rneedLow = need
		}
		r += e.ROut - e.RIn
		if r > rhi {
			rhi = r
		}
	}
	return
}

// endOfCode is the continuation for pc == len(code): the baseline's
// dispatch bounds check fires before any step is counted.
func endOfCode(n int) op {
	return func(s *state, sp, rp int) (op, int, int) {
		s.pc = n
		s.err = interp.PCError(n)
		return nil, sp, rp
	}
}

// failAt records a runtime error with the baseline's pc/opcode/message
// and stops the trampoline. Stack pointers pass through unchanged: the
// caller hands in exactly the partial state the baseline would leave.
func (s *state) failAt(pc int, failOp vm.Opcode, msg string, sp, rp int) (op, int, int) {
	s.pc = pc
	s.err = &interp.RuntimeError{PC: pc, Op: failOp, Msg: msg}
	return nil, sp, rp
}

// goTo dispatches a control transfer to an arbitrary pc, mirroring the
// baseline's loop-top bounds check: in-range targets continue at that
// pc's entry closure (cont[n] reports the end-of-code error), anything
// else is "program counter out of range" at the target.
//
// Transfers return the continuation to Run's trampoline rather than
// calling it: nested direct calls measured several times slower here —
// the accumulated frames defeat the return-address predictor and walk
// the goroutine stack limit — while the trampoline's single dispatch
// site stays cheap.
// In-range targets consult the guard table: when the target block's
// entry precheck passes on the current state, the transfer charges the
// block's steps here and either returns the unguarded first closure
// (generic blocks) or executes the whole block inline and chases the
// next transfer — call/exit/branch/test-and-branch blocks run entirely
// inside this loop, paying zero dispatches. The precheck is the same
// deterministic predicate the block's entry closure would evaluate, so
// falling back to cont[t] whenever it fails (or the pc has no fast
// entry) reproduces the bail-out and mid-block-entry paths exactly.
// The loop cannot spin: every iteration charges the target block's
// full step count, so the budget check eventually fails and hands the
// remainder to the single-step fallback.
func (v *variant) goTo(s *state, t, sp, rp int) (op, int, int) {
	// The step budget rides through the loop as a register-resident
	// fuel counter so chasing a chain of blocks stores nothing; it is
	// folded back into s.steps at every exit. The elided variant — all
	// depth bounds zero by construction — skips the depth terms.
	//
	// The precheck compares are folded into sign tests over OR-ed
	// differences: one branch per gate instead of one per term. That is
	// exact here because every term is small — fuel stays in [0, limit],
	// the guard bounds fit in 16 bits, and sp/rp stay within their
	// slices on every path that reaches a guard — so no difference can
	// wrap. The pc range check runs once at entry and again only where
	// an unvalidated target can appear (an exit block popping a corrupt
	// return address); every compile-time target was validated into
	// [0, n] when its guard was built.
	fuel := s.limit - s.steps
	nmem := int64(s.nmem)
	nst, nrs := len(s.st), len(s.rs)
	chk := !v.elided
	if uint(t) > uint(v.n) {
		s.steps = s.limit - fuel
		s.pc = t
		s.err = interp.PCError(t)
		return nil, sp, rp
	}
	for {
		g := &v.g[t]
		if g.kind == kNone {
			s.steps = s.limit - fuel
			return v.cont[t], sp, rp
		}
		left := fuel - int64(g.k)
		if left|(nmem-int64(g.memHi)) < 0 {
			s.steps = s.limit - fuel
			return v.cont[t], sp, rp
		}
		if chk &&
			(sp-int(g.needLow))|(nst-sp-int(g.hi))|
				(rp-int(g.rneedLow))|(nrs-rp-int(g.rhi)) < 0 {
			s.steps = s.limit - fuel
			return v.cont[t], sp, rp
		}
		fuel = left
		sp += int(g.spAdj)
		rp += int(g.rpAdj)
		if g.hasPre != 0 {
			gcs := &v.gc[t]
			sp, rp = gcs.preF(s, sp, rp)
			if g.hasPre > 1 {
				sp, rp = gcs.preF2(s, sp, rp)
				if g.hasPre > 2 {
					sp, rp = gcs.preF3(s, sp, rp)
				}
			}
		}
		switch g.kind {
		case kFirst:
			s.steps = s.limit - fuel
			return g.first, sp, rp
		case kCall:
			s.rs[rp] = vm.Cell(g.b)
			rp++
			t = int(g.a)
		case kExit:
			rp--
			t = int(s.rs[rp])
			if uint(t) > uint(v.n) {
				s.steps = s.limit - fuel
				s.pc = t
				s.err = interp.PCError(t)
				return nil, sp, rp
			}
			continue
		case kBranch:
			t = int(g.a)
		case k0Branch:
			sp--
			if s.st[sp] == 0 {
				t = int(g.a)
			} else {
				t = int(g.b)
			}
		case kLoop:
			rs := s.rs
			rs[rp-1]++
			if rs[rp-1] == rs[rp-2] {
				rp -= 2
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kHalt:
			s.steps = s.limit - fuel
			s.pc = int(g.a)
			return nil, sp, rp
		case kCmp0Br:
			x, y := s.st[sp-2], s.st[sp-1]
			sp -= 2
			if cmpTrue(g.opc, x, y) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kTest0Br:
			x := s.st[sp-1]
			sp--
			if testTrue(g.opc, x) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kDup0Br:
			if s.st[sp-1] == 0 {
				t = int(g.a)
			} else {
				t = int(g.b)
			}
		case kDupTest0Br:
			if testTrue(g.opc, s.st[sp-1]) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kLitCmp0Br:
			x := s.st[sp-1]
			sp--
			if cmpTrue(g.opc, x, v.gc[t].c) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kDupLitCmp0Br:
			if cmpTrue(g.opc, s.st[sp-1], v.gc[t].c) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		case kRFetchTest0Br:
			if testTrue(g.opc, s.rs[rp-1]) {
				t = int(g.b)
			} else {
				t = int(g.a)
			}
		}
	}
}

// fallTo is the control transfer for targets known in-range at compile
// time (a block's fall-through successor). The guard loop may still
// chase into arbitrary targets (an exit block pops a computed pc), so
// it shares goTo's full logic.
func (v *variant) fallTo(s *state, t, sp, rp int) (op, int, int) {
	return v.goTo(s, t, sp, rp)
}

// stepAt wraps the single-step executor as this pc's addressable entry
// closure.
func (v *variant) stepAt(pc int) op {
	return func(s *state, sp, rp int) (op, int, int) {
		return v.step(s, pc, sp, rp)
	}
}

// step executes exactly one instruction with full checks by running
// the switch interpreter itself under a one-step budget. It is the
// fallback the fused paths bail to and the entry for pcs inside a
// block, so it must match the baseline bit for bit, and it does so by
// being the baseline. Switch checks the pc range before the step
// budget (DESIGN §3a), so after one instruction RunSwitch either
// reports that instruction's own outcome or stops on the budget at the
// next in-range pc; only that stop, short of the run's real budget,
// continues the trampoline. A quickened m.Prog needs no special case:
// with no budget left after its first constituent, a superinstruction
// de-fuses to that constituent (vm/super.go).
func (v *variant) step(s *state, pc, sp, rp int) (op, int, int) {
	m := s.m
	maxSteps := m.MaxSteps
	m.PC, m.SP, m.RP, m.Steps = pc, sp, rp, s.steps
	m.MaxSteps = min(s.steps+1, s.limit)
	err := interp.RunSwitch(m)
	m.MaxSteps = maxSteps
	s.steps = m.Steps
	if re, ok := err.(*interp.RuntimeError); ok && re.Msg == interp.MsgStepLimit && m.Steps < s.limit {
		return v.cont[m.PC], m.SP, m.RP
	}
	s.pc, s.err = m.PC, err
	return nil, m.SP, m.RP
}

// writeDot prints n in Forth's ". " format, byte-identical to the
// baseline's output path.
func writeDot(m *interp.Machine, n vm.Cell) {
	m.Out.WriteString(strconv.FormatInt(n, 10))
	m.Out.WriteByte(' ')
}
