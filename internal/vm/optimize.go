package vm

// This file is the static bytecode optimizer: vm.Optimize rewrites a
// verified, depth-proven program into an observably equivalent one
// that executes fewer instructions. It is the counterpart of
// vm.Analyze — the same Effect-driven dataflow walk, but instead of
// only observing the code it improves it:
//
//   - inline:     calls to straight-line words (no control flow, no
//                 return-stack traffic, ending in OpExit) are expanded
//                 at the call site, eliminating the call/exit dispatch
//                 pair and exposing the body to the local passes and to
//                 later quickening;
//   - constfold:  literal-derived values are folded at compile time
//                 (lit/lit/binop chains, unary ops on literals, and
//                 dup/over copies of locally known constants);
//   - branchfold: 0branch with a locally known flag becomes an
//                 unconditional branch, a plain drop, or vanishes
//                 entirely when its flag literal can be erased too;
//   - peephole:   "lit c +" / "lit c -" become the standalone OpLitAdd,
//                 and a comparison followed by 0= becomes the
//                 complementary comparison;
//   - dce:        instructions no rewritten control path reaches, and
//                 the nops left behind by the folds, are deleted and
//                 every branch target, word entry and the program entry
//                 are renumbered.
//
// The optimizer is deliberately UNTRUSTED: nothing here is part of the
// correctness argument. Every accepted rewrite must additionally pass
// the independent translation validator (ProveTranslation, in
// checktrans.go), which verifies and analyzes the rewrite itself; the
// public Optimize also refuses its own rewrite when that rewrite does
// not verify and prove again. A refusal anywhere degrades to running
// the original program, never to unsoundness.
//
// Soundness-relevant local rules (the validator re-checks all of them,
// but they are designed in, not accidental):
//
//   - A literal is erased only when it is "erasable": it still
//     corresponds to exactly one stack slot that no instruction other
//     than the folding consumer has observed. Stack manipulations and
//     OpDepth mark everything below them non-erasable, because erasing
//     a value that a manip shuffles (or that depth counts) would change
//     behavior.
//   - Memory loads are never folded: request-time memory overlays make
//     Data non-constant.
//   - Division by a known zero is never folded: the fault must stay.
//   - Local knowledge never crosses a control transfer or a branch
//     target, so every fold is derivable by walking the instructions
//     of one straight-line segment — which is exactly what the
//     validator's per-episode symbolic execution replays.

// OptPass identifies one optimizer pass, for per-pass rewrite counts
// (OptResult.Ops) and the service's pass-labeled metrics.
type OptPass uint8

const (
	// PassInline expands calls to straight-line words at the call site.
	PassInline OptPass = iota
	// PassConstFold folds literal-derived computations.
	PassConstFold
	// PassBranchFold decides statically-known conditional branches.
	PassBranchFold
	// PassPeephole strength-reduces adjacent pairs (lit/+ -> lit+,
	// compare/0= -> complementary compare).
	PassPeephole
	// PassDCE deletes unreachable instructions and fold residue.
	PassDCE

	// NumOptPasses is the number of passes; not itself a valid pass.
	NumOptPasses
)

var optPassNames = [NumOptPasses]string{
	PassInline:     "inline",
	PassConstFold:  "constfold",
	PassBranchFold: "branchfold",
	PassPeephole:   "peephole",
	PassDCE:        "dce",
}

// String returns the pass's metric label.
func (p OptPass) String() string {
	if p < NumOptPasses {
		return optPassNames[p]
	}
	return "pass(?)"
}

// PCFate says what the optimizer did to the instruction at one source
// pc (the pc numbering of OptResult.Source).
type PCFate uint8

const (
	// FateKept: the instruction survives (possibly renumbered).
	FateKept PCFate = iota
	// FateRewritten: the slot survives with a different instruction
	// (folded result literal, decided branch, inlined call body).
	FateRewritten
	// FateFolded: the instruction was erased by a fold and deleted.
	FateFolded
	// FateDead: the instruction was unreachable (or a bare nop) and
	// was deleted.
	FateDead

	// NumPCFates is the number of fates; not itself a valid fate.
	NumPCFates
)

var pcFateNames = [NumPCFates]string{
	FateKept:      "kept",
	FateRewritten: "rewritten",
	FateFolded:    "folded",
	FateDead:      "dead",
}

// String returns the fate's annotation label.
func (f PCFate) String() string {
	if f < NumPCFates {
		return pcFateNames[f]
	}
	return "fate(?)"
}

// OptResult is the artifact of Optimize.
type OptResult struct {
	// Prog is the program to run: the optimized program when Changed,
	// otherwise the input program itself (quickening intact).
	Prog *Program

	// Source is the unquickened form of the input, the pc numbering
	// that Fate and NewPC describe.
	Source *Program

	// Changed reports whether Prog differs from the input.
	Changed bool

	// Ops counts rewritten or deleted instruction slots per pass.
	Ops [NumOptPasses]int

	// Fate records, per Source pc, what happened to the instruction at
	// that location.
	Fate []PCFate

	// NewPC maps each Source pc to its position in Prog, or -1 when
	// the instruction was deleted. Meaningful only when Changed.
	NewPC []int
}

// TotalOps sums the rewrite counts over all passes.
func (r *OptResult) TotalOps() int {
	total := 0
	for _, n := range r.Ops {
		total += n
	}
	return total
}

// PassOps returns the rewrite count of one pass.
func (r *OptResult) PassOps(p OptPass) int {
	if p < NumOptPasses {
		return r.Ops[p]
	}
	return 0
}

// inlineMaxBody bounds the length (instructions, including the final
// OpExit) of a word body the inliner will expand. It is the
// optimizer's heuristic alone: the translation validator follows
// straight-line callees of any length, so no bound of its own has to
// agree with this one.
const inlineMaxBody = 16

// optimizeGrowthCap bounds code growth from inlining. A program that
// would grow past 4x+4096 instructions (only adversarial call chains
// do) is returned unoptimized instead.
const optimizeGrowthCap = 4096

// optimizeMaxRounds bounds the inline-to-closure iteration; see
// Optimize. Real programs converge in one or two rounds.
const optimizeMaxRounds = 16

// straightLineBody reports the length (instructions, including the
// final OpExit) of the straight-line word body at entry: no control
// flow, no return-stack traffic, ending in OpExit within
// inlineMaxBody instructions. Such a body can be expanded at a call
// site with no observable difference beyond the elided call/exit
// dispatches and the transient return address.
func straightLineBody(code []Instr, entry int) (int, bool) {
	for pc := entry; pc < len(code) && pc-entry < inlineMaxBody; pc++ {
		op := code[pc].Op
		if op == OpExit {
			return pc - entry + 1, true
		}
		if IsSuper(op) {
			return 0, false
		}
		eff := EffectOf(op)
		if eff.Control || eff.RIn != 0 || eff.ROut != 0 {
			return 0, false
		}
	}
	return 0, false
}

// Optimize rewrites p into an observably equivalent program that
// executes fewer instructions. It is total: on any input — including
// unverified or unproven programs, for which no rewrite can be
// justified — it returns a result with Changed == false and Prog == p
// rather than an error.
//
// The observable-equivalence contract (enforced independently by
// CheckTranslation, which the artifact pipeline interposes before
// adopting any optimized program): for every run started at the entry
// point whose stacks stay within the proven bounds, the optimized
// program produces the same output bytes, the same final data and
// return stacks, the same final memory, and the same error class as
// the source — while executing at most as many steps. Step counts are
// NOT preserved: that is the point. Stack contents at the moment of a
// runtime fault are not observable (no engine or service reports
// them) and may differ.
//
// Optimize is Prove of p's unquickened form, OptimizeProof, and a
// self-check: it reports Changed only when its rewrite verifies and
// is depth-proven again. The artifact store calls OptimizeProof
// directly and leaves that check to the validator, which proves the
// same rewrite.
func Optimize(p *Program) *OptResult {
	src := Unquicken(p)
	pf, err := Prove(src)
	if err != nil {
		return unchanged(p, src)
	}
	res := OptimizeProof(pf)
	if !res.Changed {
		res.Prog = p
		return res
	}
	if tp, err := Prove(res.Prog); err != nil || !tp.facts.Proved {
		// The rewrite lost the safety proof: refuse our own work.
		return unchanged(p, src)
	}
	return res
}

// OptimizeProof is Optimize's core for a program already proven: it
// rewrites pf's program (in unquickened form) when pf is depth-proven
// and returns the identity result otherwise. It reads no facts beyond
// that verdict, and it does not verify or analyze its own rewrite: a
// Changed result is a proposal, and must pass ProveTranslation before
// anything serves it.
//
// OptimizeProof iterates its pipeline until no call site targets a
// straight-line word (inlining can straighten a word whose only
// control flow was an inlined call or a decided branch).
func OptimizeProof(pf *Proof) *OptResult {
	if pf == nil || pf.prog == nil {
		return &OptResult{} // binds no program: nothing to rewrite
	}
	src := Unquicken(pf.prog)
	res := unchanged(pf.prog, src)
	if !pf.facts.Proved {
		return res
	}

	cur := src
	changed := false
	for round := 0; round < optimizeMaxRounds; round++ {
		r, ok := optimizeOnce(cur)
		if !ok {
			// Growth cap or a remap inconsistency: discard everything
			// and serve the input unchanged.
			return unchanged(pf.prog, src)
		}
		if !r.changed {
			break
		}
		changed = true
		// Compose this round's maps into the source-relative result.
		for pc := range res.NewPC {
			if res.NewPC[pc] < 0 {
				continue
			}
			npc := r.newPC[res.NewPC[pc]]
			if f := r.fate[res.NewPC[pc]]; f > res.Fate[pc] {
				res.Fate[pc] = f
			}
			res.NewPC[pc] = npc
		}
		for pass := OptPass(0); pass < NumOptPasses; pass++ {
			res.Ops[pass] += r.ops[pass]
		}
		cur = r.prog
	}
	if !changed {
		return res
	}
	if hasLeafCallSite(cur) {
		// Closure not reached within the round budget: serve the
		// input rather than a partly inlined rewrite.
		return unchanged(pf.prog, src)
	}
	res.Prog = cur
	res.Changed = true
	return res
}

// unchanged is the identity result: prog served as is, every source
// pc kept in place.
func unchanged(prog, src *Program) *OptResult {
	n := len(src.Code)
	newPC := make([]int, n)
	for i := range newPC {
		newPC[i] = i
	}
	return &OptResult{Prog: prog, Source: src, Fate: make([]PCFate, n), NewPC: newPC}
}

// hasLeafCallSite reports whether any instruction calls a
// straight-line word — the condition the optimizer's rounds drive to
// false.
func hasLeafCallSite(p *Program) bool {
	for _, ins := range p.Code {
		if ins.Op == OpCall {
			if _, ok := straightLineBody(p.Code, int(ins.Arg)); ok {
				return true
			}
		}
	}
	return false
}

// roundResult is one optimizeOnce round over its own input program.
type roundResult struct {
	prog    *Program
	changed bool
	ops     [NumOptPasses]int
	fate    []PCFate // per input pc
	newPC   []int    // per input pc; -1 when deleted
}

// optimizeOnce runs one inline + local-rewrite + compaction round over
// src (which must be verified, proven and superinstruction-free). The
// bool result is false when the round had to give up (growth cap or an
// internal inconsistency); the caller then abandons optimization.
func optimizeOnce(src *Program) (*roundResult, bool) {
	n := len(src.Code)
	res := &roundResult{fate: make([]PCFate, n), newPC: make([]int, n)}

	// --- stage 1: inline straight-line callees ------------------------

	inline := make(map[int]int) // call pc -> body length incl. exit
	grown := 0
	for pc, ins := range src.Code {
		if ins.Op != OpCall {
			continue
		}
		if bl, ok := straightLineBody(src.Code, int(ins.Arg)); ok {
			inline[pc] = bl
			grown += bl - 2 // body minus exit replaces the call
		}
	}
	if n+grown > 4*n+optimizeGrowthCap {
		return nil, false
	}

	n1 := n + grown
	map1 := make([]int, n)           // input pc -> stage-1 pc
	code1 := make([]Instr, 0, n1)    // stage-1 code
	origin1 := make([]int, 0, n1)    // stage-1 pc -> input pc it came from
	original1 := make([]bool, 0, n1) // stage-1 pc is the instruction's own slot
	for pc, ins := range src.Code {
		map1[pc] = len(code1)
		if bl, ok := inline[pc]; ok {
			entry := int(ins.Arg)
			for k := 0; k < bl-1; k++ { // body minus the OpExit
				code1 = append(code1, src.Code[entry+k])
				origin1 = append(origin1, entry+k)
				original1 = append(original1, false)
			}
			res.fate[pc] = FateRewritten
			res.ops[PassInline]++
			continue
		}
		code1 = append(code1, ins)
		origin1 = append(origin1, pc)
		original1 = append(original1, true)
	}
	for i := range code1 {
		if EffectOf(code1[i].Op).Arg == ArgTarget {
			code1[i].Arg = Cell(map1[int(code1[i].Arg)])
		}
	}
	entry1 := map1[src.Entry]
	if entry1 >= n1 {
		return nil, false
	}

	// --- stage 2: segment-local folds on code1 ------------------------

	markRewrite := func(pc int, pass OptPass) {
		res.ops[pass]++
		if original1[pc] && res.fate[origin1[pc]] == FateKept {
			res.fate[origin1[pc]] = FateRewritten
		}
	}
	markFold := func(pc int, pass OptPass) {
		code1[pc] = Instr{Op: OpNop}
		res.ops[pass]++
		if original1[pc] {
			res.fate[origin1[pc]] = FateFolded
		}
	}

	// Segment boundaries: branch targets of the stage-1 program. Local
	// knowledge also dies after every control instruction.
	targets1 := (&Program{Code: code1, Entry: entry1}).BranchTargets()

	simPass(code1, targets1, markRewrite, markFold)

	// --- stage 3: compaction (dce) ------------------------------------

	reach := reachablePCs(code1, entry1)
	map2 := make([]int, n1)
	code2 := make([]Instr, 0, n1)
	for pc := range code1 {
		if reach[pc] && code1[pc].Op != OpNop {
			map2[pc] = len(code2)
			code2 = append(code2, code1[pc])
			continue
		}
		map2[pc] = -1
		res.ops[PassDCE]++
		if original1[pc] {
			o := origin1[pc]
			if !reach[pc] {
				res.fate[o] = FateDead
			} else if res.fate[o] == FateKept {
				res.fate[o] = FateDead // a bare pre-existing nop
			}
		}
	}
	// nextKept: first surviving pc at or after t. A reachable deleted
	// instruction is always a nop, so forwarding a branch into it to
	// the next survivor preserves behavior.
	nextKept := func(t int) int {
		for ; t < n1; t++ {
			if map2[t] >= 0 {
				return map2[t]
			}
		}
		return -1
	}
	for i := range code2 {
		if EffectOf(code2[i].Op).Arg == ArgTarget {
			nt := nextKept(int(code2[i].Arg))
			if nt < 0 {
				return nil, false
			}
			code2[i].Arg = Cell(nt)
		}
	}
	entry2 := nextKept(entry1)
	if entry2 < 0 {
		return nil, false
	}

	// A word keeps its name only while its entry still runs; the body
	// of a word inlined at every call site is dead, and forwarding its
	// name to the next survivor would label unrelated code. Verify does
	// not check the word table, so a name past the code labels nothing.
	words2 := make(map[string]int, len(src.Words))
	for name, wpc := range src.Words {
		if wpc < 0 || wpc >= n {
			continue
		}
		if p1 := map1[wpc]; p1 < n1 && reach[p1] {
			if npc := nextKept(p1); npc >= 0 {
				words2[name] = npc
			}
		}
	}

	for pc := range src.Code {
		res.newPC[pc] = -1
		if p1 := map1[pc]; p1 < n1 {
			res.newPC[pc] = map2[p1]
		}
	}

	changed := len(inline) > 0
	for pass := OptPass(0); pass < NumOptPasses; pass++ {
		if pass != PassDCE && res.ops[pass] > 0 {
			changed = true
		}
	}
	if !changed && len(code2) == n {
		// Nothing rewritten and nothing deleted: identity round.
		res.prog = src
		return res, true
	}

	res.prog = &Program{
		Code:    code2,
		Entry:   entry2,
		MemSize: src.MemSize,
		Data:    src.Data,
		Words:   words2,
	}
	res.changed = true
	if res.prog.Validate() != nil {
		return nil, false
	}
	return res, true
}

// simEnt is one data-stack slot of the fold simulation.
type simEnt struct {
	known bool // value statically known
	val   Cell
	// src is the pc of an erasable OpLit that produced exactly this
	// slot (no other instruction has observed it), or -1.
	src int
	// cmpPC/cmpOp track a flag produced by a complementable comparison
	// at cmpPC, for the compare/0= peephole.
	cmpPC int
	cmpOp Opcode
}

var simUnknown = simEnt{src: -1, cmpPC: -1}

// foldableUnary/foldableBinary are the pure data ops the arithmetic
// evaluators handle, derived by probing so the sets cannot drift.
var foldableUnary, foldableBinary = func() (u, b [NumOpcodes]bool) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		if _, ok := EvalUnary(op, 1); ok {
			u[op] = true
		}
		if _, ok := EvalBinary(op, 1, 1); ok {
			b[op] = true
		}
	}
	return
}()

// cmpComplement maps each complementable comparison to its negation
// ("x cmp y 0=" is exactly "x cmp' y") and every other opcode to
// OpNop.
var cmpComplement = func() (tab [NumOpcodes]Opcode) {
	for _, c := range [][2]Opcode{{OpEq, OpNe}, {OpLt, OpGe}, {OpGt, OpLe}, {OpZeroEq, OpZeroNe}} {
		tab[c[0]], tab[c[1]] = c[1], c[0]
	}
	return
}()

// simPass walks code once in pc order, simulating the data stack
// within each straight-line segment and rewriting in place through the
// mark callbacks. Knowledge is reset at every branch target and after
// every (original) control instruction, so each rewrite is justified
// entirely by the instructions of one segment.
func simPass(code []Instr, targets []bool, markRewrite, markFold func(int, OptPass)) {
	var sim []simEnt
	reset := func() { sim = sim[:0] }
	pop := func() simEnt {
		if len(sim) == 0 {
			return simUnknown
		}
		e := sim[len(sim)-1]
		sim = sim[:len(sim)-1]
		return e
	}
	push := func(e simEnt) { sim = append(sim, e) }

	for pc := 0; pc < len(code); pc++ {
		if targets[pc] {
			reset()
		}
		ins := code[pc]
		op := ins.Op
		if IsSuper(op) { // callers pass unquickened code; stay safe
			reset()
			continue
		}
		eff := EffectOf(op)

		switch {
		case op == OpNop:
			// transparent

		case op == OpLit:
			push(simEnt{known: true, val: ins.Arg, src: pc, cmpPC: -1})

		case op == OpLitAdd:
			a := pop()
			if a.known {
				v := a.val + ins.Arg
				if a.src >= 0 {
					markFold(a.src, PassConstFold)
					code[pc] = Instr{Op: OpLit, Arg: v}
					markRewrite(pc, PassConstFold)
					push(simEnt{known: true, val: v, src: pc, cmpPC: -1})
				} else {
					push(simEnt{known: true, val: v, src: -1, cmpPC: -1})
				}
			} else {
				push(simUnknown)
			}

		case foldableUnary[op]:
			a := pop()
			if a.known {
				v, _ := EvalUnary(op, a.val) // total on its set
				if a.src >= 0 {
					markFold(a.src, PassConstFold)
					code[pc] = Instr{Op: OpLit, Arg: v}
					markRewrite(pc, PassConstFold)
					push(simEnt{known: true, val: v, src: pc, cmpPC: -1})
				} else {
					push(simEnt{known: true, val: v, src: -1, cmpPC: -1})
				}
				break
			}
			if op == OpZeroEq && a.cmpPC == pc-1 {
				if comp := cmpComplement[a.cmpOp]; comp != OpNop {
					code[pc-1].Op = comp
					markRewrite(pc-1, PassPeephole)
					markFold(pc, PassPeephole)
					push(simEnt{src: -1, cmpPC: pc - 1, cmpOp: comp})
					break
				}
			}
			e := simUnknown
			if cmpComplement[op] != OpNop {
				e.cmpPC, e.cmpOp = pc, op
			}
			push(e)

		case foldableBinary[op]:
			b := pop()
			a := pop()
			if a.known && b.known {
				if v, ok := EvalBinary(op, a.val, b.val); ok {
					if a.src >= 0 && b.src >= 0 {
						markFold(a.src, PassConstFold)
						markFold(b.src, PassConstFold)
						code[pc] = Instr{Op: OpLit, Arg: v}
						markRewrite(pc, PassConstFold)
						push(simEnt{known: true, val: v, src: pc, cmpPC: -1})
					} else {
						push(simEnt{known: true, val: v, src: -1, cmpPC: -1})
					}
					break
				}
				push(simUnknown) // a fault (division by zero) must stay
				break
			}
			if (op == OpAdd || op == OpSub) && b.known && b.src >= 0 {
				imm := b.val
				if op == OpSub {
					imm = -imm // a-c == a+(-c) in wrapping arithmetic
				}
				markFold(b.src, PassPeephole)
				code[pc] = Instr{Op: OpLitAdd, Arg: imm}
				markRewrite(pc, PassPeephole)
				push(simUnknown)
				break
			}
			e := simUnknown
			if cmpComplement[op] != OpNop {
				e.cmpPC, e.cmpOp = pc, op
			}
			push(e)

		case op == OpDup:
			if len(sim) > 0 && sim[len(sim)-1].known {
				v := sim[len(sim)-1].val
				code[pc] = Instr{Op: OpLit, Arg: v}
				markRewrite(pc, PassConstFold)
				push(simEnt{known: true, val: v, src: pc, cmpPC: -1})
				break
			}
			applyManip(&sim, eff)

		case op == OpOver:
			if len(sim) > 1 && sim[len(sim)-2].known {
				v := sim[len(sim)-2].val
				code[pc] = Instr{Op: OpLit, Arg: v}
				markRewrite(pc, PassConstFold)
				push(simEnt{known: true, val: v, src: pc, cmpPC: -1})
				break
			}
			applyManip(&sim, eff)

		case eff.IsManip():
			applyManip(&sim, eff)

		case op == OpBranchZero:
			a := pop()
			if a.known {
				if a.val != 0 { // never taken: the branch just drops
					if a.src >= 0 {
						markFold(a.src, PassBranchFold)
						markFold(pc, PassBranchFold)
					} else {
						code[pc] = Instr{Op: OpDrop}
						markRewrite(pc, PassBranchFold)
					}
					// No transfer remains: knowledge flows on.
					break
				}
				// Always taken.
				if a.src >= 0 {
					markFold(a.src, PassBranchFold)
					code[pc] = Instr{Op: OpBranch, Arg: ins.Arg}
					markRewrite(pc, PassBranchFold)
				}
			}
			reset()

		case op == OpDepth:
			// Depth observes the live stack: nothing already pushed may
			// be erased from under it.
			for i := range sim {
				sim[i].src = -1
			}
			push(simUnknown)

		default:
			// Everything else: apply the generic stack effect with
			// unknown results; control transfers also end the segment.
			for i := 0; i < eff.In; i++ {
				pop()
			}
			for i := 0; i < eff.Out; i++ {
				push(simUnknown)
			}
			if eff.Control {
				reset()
			}
		}
	}
}

// applyManip applies a stack-manipulation Effect.Map to the
// simulation. Every output loses erasability: the manipulation
// observes (and may duplicate) its inputs, so erasing a producer
// would change what it shuffles.
func applyManip(sim *[]simEnt, eff Effect) {
	in := make([]simEnt, eff.In) // in[0] = top
	for i := 0; i < eff.In; i++ {
		s := *sim
		if len(s) == 0 {
			in[i] = simUnknown
			continue
		}
		in[i] = s[len(s)-1]
		*sim = s[:len(s)-1]
	}
	for k := len(eff.Map) - 1; k >= 0; k-- { // push bottom-first
		e := in[eff.Map[k]]
		e.src = -1
		e.cmpPC = -1
		*sim = append(*sim, e)
	}
}

// reachablePCs computes structural reachability over (rewritten) code:
// the successor sets engines actually follow, with no value reasoning.
// The translation validator explores exactly these edges, which is why
// dce may delete everything outside them.
func reachablePCs(code []Instr, entry int) []bool {
	n := len(code)
	reach := make([]bool, n)
	var stack []int
	visit := func(pc int) {
		if pc >= 0 && pc < n && !reach[pc] {
			reach[pc] = true
			stack = append(stack, pc)
		}
	}
	visit(entry)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ins := code[pc]
		if EffectOf(ins.Op).Arg == ArgTarget {
			visit(int(ins.Arg))
		}
		switch ins.Op {
		case OpBranch, OpExit, OpHalt:
		default:
			visit(pc + 1)
		}
	}
	return reach
}
