package vm

// This file is the superinstruction layer: the fusion table mined by
// cmd/supermine from the four paper workloads, the quickening pass
// that plants superinstructions over verified bytecode, and the
// helpers engines use to stay observably identical to unquickened
// execution.
//
// The semantic contract, on which every engine and the analyzer rely:
//
//   - vm.Quicken is PLACE-PRESERVING. It replaces only the FIRST
//     instruction of a matched sequence with the superinstruction
//     opcode (keeping that instruction's immediate); the remaining
//     constituents stay in the code with their own immediates. Code
//     length, pc numbering and branch-target validity are untouched,
//     and a jump into the interior of a fused sequence executes real
//     instructions.
//
//   - A superinstruction's OBSERVABLE semantics are exactly its first
//     constituent's: same stack effect (EffectOf(super) ==
//     EffectOf(first constituent)), one step, pc+1, and the first
//     constituent's errors. Executing the whole fused sequence in one
//     dispatch is a pure optimization an engine may take only when its
//     guards hold: the code tail matches Expansion (fuzzed or
//     hand-built programs may plant a super over a garbage tail), the
//     step budget has room for every constituent, the stack has the
//     constituents' combined headroom, and every possible failure
//     (division, memory range) has been pre-checked before any state
//     is committed. When any guard fails the engine de-fuses — it
//     executes just the first constituent — and the in-place tail
//     replays baseline execution exactly. Fused execution counts one
//     step per constituent, so budget sweeps are baseline-equal at
//     every budget.
type Fusion struct {
	// Super is the opcode the quickener plants (or, for Shrink rules,
	// the opcode the front end emits).
	Super Opcode

	// Seq is the constituent sequence, Seq[0] first. For quickening
	// rules Seq[0] is the instruction Super replaces in place.
	Seq []Opcode

	// Shrink marks a compile-time front-end rule (OpLitAdd): the
	// peephole replaces the whole sequence with one standalone
	// instruction and the code shrinks. vm.Quicken never applies
	// Shrink rules — planting a standalone-semantics opcode while
	// leaving the tail in place would execute the tail twice.
	Shrink bool
}

// Fusions is the single authoritative fusion table, shared by the
// forth front end's peephole (Shrink rules) and vm.Quicken (the rest),
// so the two passes cannot drift apart or double-fuse. Quickening
// rules are ordered longest-first; vm.Quicken takes the first match at
// each pc, which makes greedy matching prefer the longest gram exactly
// like the supermine census that selected them.
//
// The quickening set is the top of the census by saved dispatches
// (count x (len-1)) over the four paper workloads — see cmd/supermine
// and DESIGN.md §3g. Re-run supermine after changing the workloads or
// the front end to check the table is still the right one.
var Fusions = []Fusion{
	{Super: OpQLitLitFetchAdd, Seq: []Opcode{OpLit, OpLit, OpFetch, OpAdd}},
	{Super: OpQLitFetchAddCFetch, Seq: []Opcode{OpLit, OpFetch, OpAdd, OpCFetch}},
	{Super: OpQLitFetchLitGe, Seq: []Opcode{OpLit, OpFetch, OpLit, OpGe}},
	{Super: OpQSwapLitRshiftSwap, Seq: []Opcode{OpSwap, OpLit, OpRshift, OpSwap}},
	{Super: OpQLitLshiftOverLit, Seq: []Opcode{OpLit, OpLshift, OpOver, OpLit}},
	{Super: OpQLitLitPlusStore, Seq: []Opcode{OpLit, OpLit, OpPlusStore}},
	{Super: OpQDupLitEq, Seq: []Opcode{OpDup, OpLit, OpEq}},
	{Super: OpQLitFetchAdd, Seq: []Opcode{OpLit, OpFetch, OpAdd}},
	{Super: OpQLitFetch, Seq: []Opcode{OpLit, OpFetch}},
	{Super: OpQLitPlusStore, Seq: []Opcode{OpLit, OpPlusStore}},
	{Super: OpQAddCFetch, Seq: []Opcode{OpAdd, OpCFetch}},
	{Super: OpQLitEq, Seq: []Opcode{OpLit, OpEq}},

	// Front-end compile-time rule: "literal +" becomes the standalone
	// OpLitAdd and the code shrinks by one instruction.
	{Super: OpLitAdd, Seq: []Opcode{OpLit, OpAdd}, Shrink: true},
}

// superExpansion maps each quickening superinstruction to its
// constituent opcodes; nil for every base opcode. Built from Fusions.
var superExpansion = func() [NumOpcodes][]Opcode {
	var tab [NumOpcodes][]Opcode
	for _, f := range Fusions {
		if f.Shrink {
			continue
		}
		if tab[f.Super] != nil {
			panic("vm: duplicate fusion for " + f.Super.String())
		}
		if len(f.Seq) < 2 {
			panic("vm: fusion for " + f.Super.String() + " is not a sequence")
		}
		for _, c := range f.Seq {
			// Inlined Fusible (which reads this table and would be an
			// initialization cycle): constituents are straight-line,
			// non-output, non-depth base opcodes.
			eff := effects[c]
			if !c.Valid() || eff.Control || eff.MemStack ||
				c == OpEmit || c == OpDot || c == OpType {
				panic("vm: fusion constituent " + c.String() + " is not fusible")
			}
		}
		e0, es := effects[f.Super], effects[f.Seq[0]]
		if e0.In != es.In || e0.Out != es.Out || e0.RIn != es.RIn ||
			e0.ROut != es.ROut || e0.Arg != es.Arg ||
			e0.Control != es.Control || e0.MemStack != es.MemStack ||
			len(e0.Map) != len(es.Map) {
			panic("vm: " + f.Super.String() + " effect differs from its first constituent")
		}
		tab[f.Super] = f.Seq
	}
	return tab
}()

// Fusible reports whether op may be a constituent of a
// superinstruction. Fusion is restricted to straight-line data
// instructions: control transfers end the window by definition,
// OpDepth needs the true materialized stack depth mid-sequence, and
// the output instructions interleave with the output budget check.
// Superinstructions themselves are not constituents — fusion is one
// level deep, which is what keeps vm.Quicken idempotent.
func Fusible(op Opcode) bool {
	if !op.Valid() || IsSuper(op) {
		return false
	}
	eff := effects[op]
	if eff.Control || eff.MemStack {
		return false
	}
	switch op {
	case OpEmit, OpDot, OpType:
		return false
	}
	return true
}

// IsSuper reports whether op is a quickening superinstruction — an
// opcode vm.Quicken plants over the first instruction of a fused
// sequence. (OpLitAdd is not one: it is the front end's compile-time
// superinstruction with standalone semantics and no code tail.)
func IsSuper(op Opcode) bool {
	return op.Valid() && superExpansion[op] != nil
}

// Expansion returns the constituent opcodes of a quickening
// superinstruction (a copy), or nil for any other opcode.
func Expansion(op Opcode) []Opcode {
	if !op.Valid() || superExpansion[op] == nil {
		return nil
	}
	return append([]Opcode(nil), superExpansion[op]...)
}

// CanonicalInstr returns the instruction an engine must execute when
// it de-fuses: the superinstruction's first constituent carrying the
// same immediate. Non-super instructions pass through unchanged. This
// is total on arbitrary bytes — exactly what engines need when a
// fuzzed program plants a super opcode over a tail that doesn't match
// its expansion.
func CanonicalInstr(ins Instr) Instr {
	if ins.Op.Valid() && superExpansion[ins.Op] != nil {
		return Instr{Op: superExpansion[ins.Op][0], Arg: ins.Arg}
	}
	return ins
}

// SuperDepths returns the fused sequence's combined data-stack needs
// relative to the depth at entry: borrow is how many cells below the
// entry depth the sequence reads (its combined underflow requirement)
// and rise is how many cells above the entry depth it reaches at any
// point, including the final state (its combined overflow headroom).
// Both are 0 for non-super opcodes.
func SuperDepths(op Opcode) (borrow, rise int) {
	if !IsSuper(op) {
		return 0, 0
	}
	d, min, max := 0, 0, 0
	for _, c := range superExpansion[op] {
		eff := effects[c]
		d -= eff.In
		if d < min {
			min = d
		}
		d += eff.Out
		if d > max {
			max = d
		}
	}
	return -min, max
}

// ShrinkPair looks up the compile-time Shrink rule for a two-opcode
// sequence: the standalone superinstruction the front end's peephole
// may emit in place of first+second (the code shrinks by one
// instruction). The front end and vm.Quicken share the Fusions table
// through this lookup, so the peephole cannot drift from the quickened
// set: a pair consumed here is gone before quickening, and every other
// sequence is left for the quickener. Returns false when no Shrink
// rule matches.
func ShrinkPair(first, second Opcode) (Opcode, bool) {
	for _, f := range Fusions {
		if f.Shrink && len(f.Seq) == 2 && f.Seq[0] == first && f.Seq[1] == second {
			return f.Super, true
		}
	}
	return 0, false
}

// Quicken rewrites a verified program to its fused form: a copy of p
// in which the first instruction of every left-to-right,
// longest-match occurrence of a Fusions sequence is replaced by the
// superinstruction opcode (keeping its immediate), provided no
// interior instruction of the match is a branch target — fusing
// across a join point would let the profile-guided table change which
// pcs are "first" instructions under different control flow, so the
// quickener simply refuses, like the supermine census window. Matched
// constituents are consumed (matches never overlap) and
// superinstructions are never constituents, so Quicken is idempotent.
//
// It returns the quickened program and the number of planted
// superinstructions; when nothing matches it returns p itself and 0.
// Callers re-verify the result — vm.Verify checks the planted tails
// against the table — but need not re-analyze it: vm.Analyze has no
// superinstruction case, EffectOf(super) equals EffectOf(first
// constituent), and Analyze names that constituent in its violation
// messages, so Analyze(q) deep-equals Analyze(p). Proof.Quicken is
// the step that does exactly this.
func Quicken(p *Program) (*Program, int) {
	targets := p.BranchTargets()
	var code []Instr
	sites := 0
	for pc := 0; pc < len(p.Code); pc++ {
		op := p.Code[pc].Op
		if !Fusible(op) {
			continue
		}
	match:
		for _, f := range Fusions {
			if f.Shrink || f.Seq[0] != op || pc+len(f.Seq) > len(p.Code) {
				continue
			}
			for k := 1; k < len(f.Seq); k++ {
				if p.Code[pc+k].Op != f.Seq[k] || targets[pc+k] {
					continue match
				}
			}
			if code == nil {
				code = append([]Instr(nil), p.Code...)
			}
			code[pc].Op = f.Super
			sites++
			pc += len(f.Seq) - 1
			break
		}
	}
	if sites == 0 {
		return p, 0
	}
	q := *p
	q.Code = code
	return &q, sites
}

// Quicken quickens pf's program and verifies the result. The quickened
// program's Proof shares pf's facts instead of re-analyzing (see
// Quicken for why they are identical); only its planted tails are new,
// and Verify checks those. It returns pf itself and 0 when nothing
// was planted, and Verify's error when the fused program does not
// verify.
func (pf *Proof) Quicken() (*Proof, int, error) {
	q, n := Quicken(pf.prog)
	if n == 0 {
		return pf, 0, nil
	}
	if err := Verify(q); err != nil {
		return nil, 0, err
	}
	return &Proof{prog: q, facts: pf.facts}, n, nil
}

// Unquicken undoes Quicken: every superinstruction reverts to its
// first constituent (the tail is still in place, so the result is the
// original instruction sequence). Programs without superinstructions
// are returned as-is. Engines that compile programs instead of
// dispatching them (internal/compiled) unquicken first and apply
// their own fusion; everything observable is unchanged either way.
func Unquicken(p *Program) *Program {
	var code []Instr
	for pc, ins := range p.Code {
		if !IsSuper(ins.Op) {
			continue
		}
		if code == nil {
			code = append([]Instr(nil), p.Code...)
		}
		code[pc].Op = superExpansion[ins.Op][0]
	}
	if code == nil {
		return p
	}
	q := *p
	q.Code = code
	return &q
}
