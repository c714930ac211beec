package vm

import (
	"bytes"
	"errors"
	"fmt"
)

// This file is the translation validator: vm.CheckTranslation(orig,
// opt) proves, for one specific pair of programs, that opt is an
// observably equivalent rewrite of orig — same output bytes, same
// final stacks and memory on success, same error class on failure,
// never more executed steps. It deliberately shares NO rewrite logic
// with the optimizer: Optimize may be arbitrarily aggressive (and
// arbitrarily buggy) because nothing it does is trusted; every
// rewritten program must independently convince this checker, and a
// refusal simply means the original program is served.
//
// Method: paired symbolic execution per episode. An episode starts at
// a pair of corresponding pcs (beginning with the two entry points)
// with a fresh symbolic state — unknown stack cells below the entry
// depth are shared symbols, so "whatever was there" is the same
// term on both sides — and each side executes symbolically until its
// next dynamic control decision (its "ender"): an undecided
// conditional branch, a backward jump, a call to a word with control
// flow, a word return, or halt. Forward branches, constant-decided
// conditionals, nops and calls to straight-line words are followed
// inline, which is exactly the set of control edges the optimizer may
// have rewritten away. The two episodes must then agree on
// everything observable:
//
//   - the ender kind and its operand terms (branch flag, loop
//     controls),
//   - the ordered event log: memory-fault guards, memory writes and
//     output writes, with symbolic operand terms — equal logs mean
//     equal output bytes, equal final memory, and the same first
//     fault (hence the same error class) on every concrete run,
//   - the net data- and return-stack effect, term by term,
//   - and the step count, where the optimized side must not exceed
//     the original.
//
// Matching episodes enqueue their successor pc pairs (branch targets,
// call/return continuations), and the worklist closes over every
// reachable pair. Terms are hash-consed with the same constant
// arithmetic the engines execute (EvalUnary/EvalBinary, the shared
// ground truth in arith.go), so "provably equal" is pointer equality.
//
// Trusted-computing-base argument: the validator plus vm.Verify,
// vm.Analyze and the arithmetic in arith.go are trusted; the
// optimizer is not. Analyze is a precondition (both programs must be
// depth-proven) because the episode argument leans on frame
// discipline: a proven program only ever exits a word at frame base,
// so the cell an OpExit pops is necessarily the return address its
// call pushed, and return-stack cells read by r@/i/j are never
// return addresses. Verify and Analyze are shared with the engine
// check-elision machinery and are exercised by the differential and
// fuzz suites independently of any optimizer concern. The original's
// verdict reaches the validator only as a Proof, which only package
// vm constructs; the validator proves the rewrite itself.
//
// The validator's total work is bounded: one budget of symbolic steps,
// linear in the two programs' lengths, covers every pair and every
// episode, so a program whose episodes re-walk a shared tail from many
// branch pairs is refused in linear time instead of being validated in
// quadratic time. An episode may spend whatever budget is left: a
// folded call tree can make one episode of any length, and no smaller
// fixed bound covers them all.
//
// What the validator does NOT promise: identical step counts (the
// point of optimizing is fewer steps; a run can therefore complete
// under a step budget that would have stopped the original — the
// service reports which accounting applies), and identical stack
// contents at the moment of a runtime fault (no engine or service
// exposes them).

// ctMaxPairs bounds the explored pc-pair set; exceeding it refuses
// the translation (never accepts it).
const ctMaxPairs = 1 << 16

// ErrValidatorBudget is wrapped by every refusal that is a resource
// bound rather than a divergence: the work budget of symbolic steps or
// the cap on explored pc pairs ran out. Such a rewrite may well be
// correct; the validator refuses it, never accepts it, and the source
// program is served.
var ErrValidatorBudget = errors.New("validator budget exhausted; refusing")

// ctStepsPerInstr and ctStepsBase size the validator's work budget:
// ctStepsPerInstr*(len(o)+len(t)) + ctStepsBase symbolic steps over
// all pairs of one validation. Real programs (the paper suite, the
// benchmark's generated programs) use under 3 steps per instruction
// and under 2,000 in all, about a tenth of the budget or less.
// Exhausting it refuses the translation, never accepts it.
const (
	ctStepsPerInstr = 32
	ctStepsBase     = 4096
)

// CheckTranslation proves opt observably equivalent to orig, or
// returns an error explaining the first divergence it could not
// rule out. A non-nil error does NOT mean opt is wrong — the checker
// is deliberately incomplete — but nil means the rewrite is safe to
// serve. Quickening is transparent here: both programs are compared
// in unquickened form, since superinstructions are observably
// identical to their expansions by construction.
//
// CheckTranslation is Prove of orig's unquickened form followed by
// ProveTranslation, the core the artifact store calls with the Proof
// it already holds.
func CheckTranslation(orig, opt *Program) error {
	if orig == nil || opt == nil {
		return fmt.Errorf("vm: checktranslation: nil program")
	}
	op, err := Prove(Unquicken(orig))
	if err != nil {
		return fmt.Errorf("vm: checktranslation: original: %w", err)
	}
	_, err = ProveTranslation(op, opt)
	return err
}

// ProveTranslation is CheckTranslation for an original that is
// already proven: it refuses unless orig is depth-proven, verifies
// and analyzes opt's unquickened form itself, runs the episode
// comparison, and on success returns the Proof of that form — the
// program to serve, with its facts. orig's facts are reused, not
// re-derived, which is sound because only vm constructs a Proof and
// unquickening keeps both verdicts: Verify(p) implies
// Verify(Unquicken(p)), and Analyze gives them equal facts.
func ProveTranslation(orig *Proof, opt *Program) (*Proof, error) {
	if orig == nil || orig.prog == nil || opt == nil {
		return nil, fmt.Errorf("vm: checktranslation: nil program")
	}
	if !orig.facts.Proved {
		return nil, fmt.Errorf("vm: checktranslation: original program is not depth-proven")
	}
	o, t := Unquicken(orig.prog), Unquicken(opt)
	tp, err := Prove(t)
	if err != nil {
		return nil, fmt.Errorf("vm: checktranslation: rewritten: %w", err)
	}
	if !tp.facts.Proved {
		return nil, fmt.Errorf("vm: checktranslation: rewritten program is not depth-proven")
	}
	if o.MemSize != t.MemSize {
		return nil, fmt.Errorf("vm: checktranslation: memory size differs: %d vs %d", o.MemSize, t.MemSize)
	}
	if !bytes.Equal(o.Data, t.Data) {
		return nil, fmt.Errorf("vm: checktranslation: initial memory differs")
	}
	n := len(o.Code) + len(t.Code)
	v := &validator{
		o: o, t: t, seen: make(map[pcPair]bool),
		slo: newSLMemo(o), slt: newSLMemo(t),
		budget: ctStepsPerInstr*n + ctStepsBase,
	}
	v.enqueue(pcPair{o.Entry, t.Entry})
	for len(v.queue) > 0 {
		pair := v.queue[len(v.queue)-1]
		v.queue = v.queue[:len(v.queue)-1]
		if err := v.checkPair(pair); err != nil {
			return nil, err
		}
	}
	if v.overflow {
		return nil, fmt.Errorf("vm: checktranslation: more than %d pc pairs: %w", ctMaxPairs, ErrValidatorBudget)
	}
	return tp, nil
}

// pcPair is one correspondence point: pc o in the original matches pc
// t in the rewrite.
type pcPair struct{ o, t int }

type validator struct {
	o, t     *Program
	seen     map[pcPair]bool
	queue    []pcPair
	overflow bool

	// slo and slt classify the straight-line words of o and t.
	slo, slt slMemo

	// steps counts the symbolic steps of every episode so far, against
	// budget (see ctStepsPerInstr).
	steps, budget int

	// ctx is the hash-cons table, reset before each pair so every
	// pair's terms are its own, as if freshly allocated; eo and et
	// are the pair's two episodes, whose slices later pairs reuse.
	ctx    epCtx
	eo, et episode
}

// ctxReuseMax bounds the term count of a table that is cleared and
// reused; a larger one is dropped, so one big episode does not make
// every later clear pay for its capacity.
const ctxReuseMax = 1024

func (v *validator) enqueue(p pcPair) {
	if v.seen[p] {
		return
	}
	if len(v.seen) >= ctMaxPairs {
		v.overflow = true
		return
	}
	v.seen[p] = true
	v.queue = append(v.queue, p)
}

func (v *validator) checkPair(pair pcPair) error {
	ctx := &v.ctx
	ctx.reset()
	eo, et := &v.eo, &v.et
	if err := runEpisode(ctx, eo, v.o, &v.slo, pair.o, v.budget-v.steps); err != nil {
		return fmt.Errorf("vm: checktranslation: original pc %d: %w", pair.o, err)
	}
	v.steps += eo.steps
	if err := runEpisode(ctx, et, v.t, &v.slt, pair.t, v.budget-v.steps); err != nil {
		return fmt.Errorf("vm: checktranslation: rewritten pc %d: %w", pair.t, err)
	}
	v.steps += et.steps
	if err := compareEpisodes(eo, et); err != nil {
		return fmt.Errorf("vm: checktranslation: pcs (%d,%d): %w", pair.o, pair.t, err)
	}
	switch eo.end.kind {
	case eJump:
		v.enqueue(pcPair{eo.end.target, et.end.target})
	case eCond, eLoop, ePlusLoop, eCall:
		v.enqueue(pcPair{eo.end.target, et.end.target})
		v.enqueue(pcPair{eo.end.fall, et.end.fall})
	case eExit, eHalt:
	}
	return nil
}

func compareEpisodes(o, t *episode) error {
	if o.end.kind != t.end.kind {
		return fmt.Errorf("control diverges: %v vs %v", o.end.kind, t.end.kind)
	}
	if o.end.cond != t.end.cond {
		return fmt.Errorf("branch condition differs")
	}
	if len(o.end.args) != len(t.end.args) {
		return fmt.Errorf("ender operand count differs")
	}
	for i := range o.end.args {
		if o.end.args[i] != t.end.args[i] {
			return fmt.Errorf("ender operand %d differs", i)
		}
	}
	if o.end.rexit != t.end.rexit {
		return fmt.Errorf("exit pops different return-stack depths")
	}
	if len(o.events) != len(t.events) {
		return fmt.Errorf("event logs differ in length: %d vs %d", len(o.events), len(t.events))
	}
	for i := range o.events {
		if o.events[i] != t.events[i] {
			return fmt.Errorf("event %d differs (%v vs %v)", i, o.events[i].op, t.events[i].op)
		}
	}
	if o.dneed != t.dneed || len(o.st) != len(t.st) {
		return fmt.Errorf("data-stack effect differs")
	}
	for i := range o.st {
		if o.st[i] != t.st[i] {
			return fmt.Errorf("data-stack cell %d differs", i)
		}
	}
	if o.rneed != t.rneed || len(o.rst) != len(t.rst) {
		return fmt.Errorf("return-stack effect differs")
	}
	for i := range o.rst {
		if o.rst[i] != t.rst[i] {
			return fmt.Errorf("return-stack cell %d differs", i)
		}
	}
	if t.steps > o.steps {
		return fmt.Errorf("rewritten side takes more steps (%d > %d)", t.steps, o.steps)
	}
	return nil
}

// --- symbolic terms ---

type termKind uint8

const (
	tConst termKind = iota
	tDSym           // data-stack cell below episode entry; c is the depth (1 = first below)
	tRSym           // return-stack cell below episode entry
	tMem            // memory read; op is OpFetch/OpCFetch, a the address, c the write epoch
	tDepth          // OpDepth result; c is the stack delta relative to episode entry
	tApp            // op applied to a (and b)
)

// term is a hash-consed symbolic value; equal terms are pointer-equal
// within one episode context.
type term struct {
	kind termKind
	op   Opcode
	c    Cell
	a, b *term
}

// epCtx is one pair's term table. Terms live in slab chunks that the
// next pair overwrites: a pair's terms die with it, so within a pair
// pointer equality is still semantic equality.
type epCtx struct {
	terms  map[term]*term
	consts map[Cell]*term // tConst terms, keyed by value alone
	slab   []term         // the current chunk; never grown in place
}

// reset empties the table for the next pair, keeping its storage
// unless the last pair made it larger than ctxReuseMax terms.
func (c *epCtx) reset() {
	if c.terms == nil || len(c.terms)+len(c.consts) > ctxReuseMax {
		c.terms = make(map[term]*term)
		c.consts = make(map[Cell]*term)
		c.slab = nil
		return
	}
	clear(c.terms)
	clear(c.consts)
	c.slab = c.slab[:0]
}

// alloc places t in the slab. A full chunk is left to the terms that
// point into it and a fresh one is started, never appended past its
// capacity, so interned pointers stay valid.
func (c *epCtx) alloc(t term) *term {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]term, 0, max(64, 2*cap(c.slab)))
	}
	c.slab = append(c.slab, t)
	return &c.slab[len(c.slab)-1]
}

func (c *epCtx) intern(t term) *term {
	if p, ok := c.terms[t]; ok {
		return p
	}
	p := c.alloc(t)
	c.terms[t] = p
	return p
}

func (c *epCtx) konst(v Cell) *term {
	if p, ok := c.consts[v]; ok {
		return p
	}
	p := c.alloc(term{kind: tConst, c: v})
	c.consts[v] = p
	return p
}

func (c *epCtx) dsym(k int) *term  { return c.intern(term{kind: tDSym, c: Cell(k)}) }
func (c *epCtx) rsym(k int) *term  { return c.intern(term{kind: tRSym, c: Cell(k)}) }
func (c *epCtx) depth(d int) *term { return c.intern(term{kind: tDepth, c: Cell(d)}) }
func (c *epCtx) mem(op Opcode, addr *term, epoch int) *term {
	return c.intern(term{kind: tMem, op: op, a: addr, c: Cell(epoch)})
}

// app1 builds a unary application, folding constants with the
// engines' own arithmetic and normalizing "flag 0=" to the
// complementary comparison — the same identities the optimizer's
// peephole uses, so both sides of a rewrite reduce to one canonical
// term.
func (c *epCtx) app1(op Opcode, a *term) *term {
	if a.kind == tConst {
		if v, ok := EvalUnary(op, a.c); ok {
			return c.konst(v)
		}
	}
	if op == OpZeroEq && a.kind == tApp {
		if comp := cmpComplement[a.op]; comp != OpNop {
			if a.b != nil {
				return c.app2(comp, a.a, a.b)
			}
			return c.app1(comp, a.a)
		}
	}
	return c.intern(term{kind: tApp, op: op, a: a})
}

// app2 builds a binary application; "x - const" is canonicalized to
// "x + (-const)", which is exact in wrapping arithmetic and makes the
// OpLitAdd rewrite of subtraction syntactically checkable.
func (c *epCtx) app2(op Opcode, a, b *term) *term {
	if a.kind == tConst && b.kind == tConst {
		if v, ok := EvalBinary(op, a.c, b.c); ok {
			return c.konst(v)
		}
	}
	if op == OpSub && b.kind == tConst {
		return c.app2(OpAdd, a, c.konst(-b.c))
	}
	return c.intern(term{kind: tApp, op: op, a: a, b: b})
}

// --- events ---

type evKind uint8

const (
	evGuard evKind = iota // a memory-range or division check that can fault
	evWrite               // a memory write
	evOut                 // an output write (emit, dot, type)
)

// event is one observable (or fault-relevant) action. Events are
// compared in order across the two sides; term fields are pointers
// into the shared episode context, so struct equality is semantic
// equality.
type event struct {
	kind evKind
	op   Opcode
	a, b *term
}

// --- episodes ---

type enderKind uint8

const (
	eHalt enderKind = iota
	eJump           // backward unconditional transfer
	eCond           // undecided 0branch
	eCall           // call to a word with control flow
	eExit           // word return popping below the episode frame
	eLoop           // do-loop back edge decision
	ePlusLoop
)

func (k enderKind) String() string {
	switch k {
	case eHalt:
		return "halt"
	case eJump:
		return "jump"
	case eCond:
		return "conditional branch"
	case eCall:
		return "call"
	case eExit:
		return "exit"
	case eLoop:
		return "loop"
	case ePlusLoop:
		return "+loop"
	}
	return "ender(?)"
}

type ender struct {
	kind   enderKind
	target int     // side-local: jump target or callee entry
	fall   int     // side-local: fall-through / return continuation
	cond   *term   // eCond: the branch flag
	args   []*term // eLoop/ePlusLoop operand terms
	rexit  int     // eExit: below-entry depth popped
}

type episode struct {
	end    ender
	st     []*term
	dneed  int
	rst    []*term
	rneed  int
	events []event
	steps  int
}

// slMemo is the validator's own straight-line classifier for one
// program, independent of the optimizer's inlining heuristics: the
// code from pc is straight-line when it reaches an OpExit through
// instructions without control flow or return-stack traffic, and
// through calls whose callees are straight-line in turn, of any
// length. A call cycle is not straight-line. Each pc gets one verdict
// per validation, so classifying costs time linear in the program;
// following a straight-line callee is paid for by the work budget.
type slMemo struct {
	code    []Instr
	verdict []slVerdict
}

type slVerdict uint8

const (
	slUnknown slVerdict = iota
	slPending           // on the current classification path
	slYes
	slNo
)

func newSLMemo(p *Program) slMemo {
	return slMemo{code: p.Code, verdict: make([]slVerdict, len(p.Code))}
}

// straight reports whether a call to the word at entry is followed
// inline by the episode runner. It walks forward from entry to the
// first pc with a verdict, recursing into callees, and gives every pc
// it walked the verdict of the walk. Reaching a pending pc means a
// callee leads back into the walk: a cycle.
func (m *slMemo) straight(entry int) bool {
	v, pc := slNo, entry
	for pc < len(m.code) {
		if known := m.verdict[pc]; known != slUnknown {
			if known == slYes {
				v = slYes
			}
			break
		}
		m.verdict[pc] = slPending
		op := m.code[pc].Op
		pc++
		if op == OpExit {
			v = slYes
			break
		}
		if op == OpCall {
			if !m.straight(int(m.code[pc-1].Arg)) {
				break
			}
			continue
		}
		// The program is verified and unquickened, so op is valid and
		// no superinstruction.
		if eff := &effects[op]; eff.Control || eff.RIn != 0 || eff.ROut != 0 {
			break
		}
	}
	for i := entry; i < pc; i++ {
		m.verdict[i] = v
	}
	return v == slYes
}

// runEpisode symbolically executes p from pc until its next dynamic
// control decision, following nops, forward branches,
// constant-decided conditionals and straight-line calls (as sl
// classifies p's words) inline, for at most stepCap steps. It records
// the episode in e, reusing e's slices.
func runEpisode(ctx *epCtx, e *episode, p *Program, sl *slMemo, pc int, stepCap int) error {
	code := p.Code
	*e = episode{st: e.st[:0], rst: e.rst[:0], events: e.events[:0]}
	var inlineRet []int
	in := make([]*term, 0, 4) // a stack manipulation's inputs, top first
	epoch := 0

	popD := func() *term {
		if len(e.st) == 0 {
			e.dneed++
			return ctx.dsym(e.dneed)
		}
		t := e.st[len(e.st)-1]
		e.st = e.st[:len(e.st)-1]
		return t
	}
	pushD := func(t *term) { e.st = append(e.st, t) }
	popR := func() *term {
		if len(e.rst) == 0 {
			e.rneed++
			return ctx.rsym(e.rneed)
		}
		t := e.rst[len(e.rst)-1]
		e.rst = e.rst[:len(e.rst)-1]
		return t
	}
	pushR := func(t *term) { e.rst = append(e.rst, t) }
	guard := func(op Opcode, a, b *term) {
		e.events = append(e.events, event{kind: evGuard, op: op, a: a, b: b})
	}
	write := func(op Opcode, addr, val *term) {
		e.events = append(e.events, event{kind: evWrite, op: op, a: addr, b: val})
		epoch++
	}
	out := func(op Opcode, a, b *term) {
		e.events = append(e.events, event{kind: evOut, op: op, a: a, b: b})
	}

	for {
		if e.steps >= stepCap {
			return fmt.Errorf("episode exceeds the %d symbolic steps left: %w", stepCap, ErrValidatorBudget)
		}
		if pc < 0 || pc >= len(code) {
			return fmt.Errorf("symbolic pc %d out of range", pc)
		}
		ins := code[pc]
		op := ins.Op
		e.steps++
		eff := &effects[op] // p is verified, so op is valid

		switch {
		case op == OpNop:
			pc++

		case op == OpLit:
			pushD(ctx.konst(ins.Arg))
			pc++

		case op == OpLitAdd:
			pushD(ctx.app2(OpAdd, popD(), ctx.konst(ins.Arg)))
			pc++

		case foldableUnary[op]:
			pushD(ctx.app1(op, popD()))
			pc++

		case foldableBinary[op]:
			b := popD()
			a := popD()
			if (op == OpDiv || op == OpMod) && !(b.kind == tConst && b.c != 0) {
				guard(op, b, nil) // a possible (or certain) division fault
			}
			pushD(ctx.app2(op, a, b))
			pc++

		case eff.IsManip():
			in = in[:0]
			for i := 0; i < eff.In; i++ {
				in = append(in, popD())
			}
			for k := len(eff.Map) - 1; k >= 0; k-- {
				pushD(in[eff.Map[k]])
			}
			pc++

		case op == OpToR:
			pushR(popD())
			pc++
		case op == OpRFrom:
			pushD(popR())
			pc++
		case op == OpRFetch, op == OpI:
			t := popR()
			pushR(t)
			pushD(t)
			pc++
		case op == OpJ:
			a := popR()
			b := popR()
			j := popR()
			pushR(j)
			pushR(b)
			pushR(a)
			pushD(j)
			pc++
		case op == OpUnloop:
			popR()
			popR()
			pc++
		case op == OpDo:
			idx := popD()
			lim := popD()
			pushR(lim)
			pushR(idx)
			pc++

		case op == OpFetch, op == OpCFetch:
			addr := popD()
			guard(op, addr, nil)
			pushD(ctx.mem(op, addr, epoch))
			pc++
		case op == OpStore, op == OpCStore:
			addr := popD()
			x := popD()
			guard(op, addr, nil)
			write(op, addr, x)
			pc++
		case op == OpPlusStore:
			addr := popD()
			n := popD()
			guard(op, addr, nil)
			write(op, addr, ctx.app2(OpAdd, ctx.mem(OpFetch, addr, epoch), n))
			pc++

		case op == OpEmit, op == OpDot:
			out(op, popD(), nil)
			pc++
		case op == OpType:
			n := popD()
			addr := popD()
			guard(op, addr, n)
			out(op, addr, n)
			pc++

		case op == OpDepth:
			pushD(ctx.depth(len(e.st) - e.dneed))
			pc++

		case op == OpBranch:
			t := int(ins.Arg)
			if t > pc {
				pc = t // forward: follow inline
				break
			}
			e.end = ender{kind: eJump, target: t}
			return nil

		case op == OpBranchZero:
			cond := popD()
			if cond.kind == tConst {
				if cond.c == 0 {
					t := int(ins.Arg)
					if t > pc {
						pc = t
						break
					}
					e.end = ender{kind: eJump, target: t}
					return nil
				}
				pc++
				break
			}
			e.end = ender{kind: eCond, cond: cond, target: int(ins.Arg), fall: pc + 1}
			return nil

		case op == OpCall:
			callee := int(ins.Arg)
			if sl.straight(callee) {
				// Straight-line word: follow the body inline. Its
				// return-stack frame is transient (the body cannot
				// touch the return stack), so the call/exit pair has
				// no symbolic effect at all.
				inlineRet = append(inlineRet, pc+1)
				pc = callee
				break
			}
			e.end = ender{kind: eCall, target: callee, fall: pc + 1}
			return nil

		case op == OpExit:
			if len(inlineRet) > 0 {
				pc = inlineRet[len(inlineRet)-1]
				inlineRet = inlineRet[:len(inlineRet)-1]
				break
			}
			if len(e.rst) > 0 {
				// The popped cell was pushed during this episode: a
				// computed return address we cannot resolve.
				return fmt.Errorf("exit pops an episode-computed return address")
			}
			e.rneed++
			e.end = ender{kind: eExit, rexit: e.rneed}
			return nil

		case op == OpHalt:
			e.end = ender{kind: eHalt}
			return nil

		case op == OpLoop:
			idx := popR()
			lim := popR()
			e.end = ender{kind: eLoop, target: int(ins.Arg), fall: pc + 1, args: []*term{lim, idx}}
			return nil

		case op == OpPlusLoop:
			n := popD()
			idx := popR()
			lim := popR()
			e.end = ender{kind: ePlusLoop, target: int(ins.Arg), fall: pc + 1, args: []*term{n, lim, idx}}
			return nil

		default:
			return fmt.Errorf("cannot model %s symbolically", op)
		}
	}
}
