package vm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// This file implements the bytecode abstract interpretation that turns
// the per-dispatch stack checks of the execution engines into ahead-of-
// time proofs. It is the same dataflow machinery that drives static
// stack caching (§5 of the paper): walk the control-flow graph derived
// from Effect metadata, propagate an abstract stack state along every
// edge, and reconcile states at join points — except the abstract state
// here is a depth interval rather than a cache-register assignment.
//
// The analysis is interprocedural by word summaries. Each called word
// (an OpCall target) is analyzed once in relative terms — depth
// intervals relative to the depth at its entry — producing a summary
// (net data-stack effect over all its exits). Callers apply the summary
// at each call site instead of re-walking the callee, which keeps the
// analysis precise when one helper word is called from many different
// absolute depths (the common shape the Forth front end emits). A
// second, top-down pass then assigns each word an absolute entry-depth
// interval (joined over its call sites) and checks every reachable
// instruction against the real capacities.
//
// Return-stack safety is proven through frame discipline: within a
// called word the analysis tracks the return-stack height relative to
// the word's entry (the frame), with the return address conceptually
// just below height zero. An OpExit is a proven return exactly when the
// frame height is exactly zero — then the cell it pops is necessarily
// the return address its call pushed. Loop-control traffic (do/loop)
// and >r/r> pairs must stay at non-negative frame heights; anything
// that may reach below the frame (popping the return address, or the
// caller's loop controls) makes the program unprovable, and it keeps
// the dynamic checks. Recursion surfaces naturally: a recursive call
// cycle makes the absolute entry intervals of the words involved grow
// without bound, which widening drives to the capacity sentinel and
// reports as possible stack overflow — the honest answer, since
// recursion depth is data-dependent.

// AnalysisDepthCap and AnalysisRDepthCap are the stack capacities the
// analysis proves against. They equal interp.DefaultStackCap and
// DefaultRStackCap (asserted by tests there; vm cannot import interp).
// Engines additionally re-check the proven maxima against the actual
// machine's stack sizes at run time, so a mismatch degrades to the
// checked path rather than to unsoundness.
const (
	AnalysisDepthCap  = 4096
	AnalysisRDepthCap = 4096
)

// widenAfter bounds how many state-changing joins a program point (or a
// word's absolute entry) absorbs before its upper bounds are widened to
// the capacity sentinel. Monotone interval joins terminate without it,
// but only after O(capacity) round trips around a depth-accumulating
// loop; widening reaches the same "may overflow" verdict in a handful.
const widenAfter = 32

// analysisBudget caps the total number of abstract transfer steps, a
// safety valve so adversarial (fuzzed) programs cannot make Analyze
// quadratic-slow. Exceeding it yields an unproven result, never an
// unsound one. Real programs use a tiny fraction of this.
const analysisBudget = 4_000_000

// Interval is an inclusive [Lo,Hi] bound on a stack depth at one
// program point. Depths are cells; for data-stack facts the interval is
// relative to an empty stack at program entry (runs seeded with initial
// arguments shift it uniformly upward, which engines account for when
// deciding to elide checks).
type Interval struct {
	Lo, Hi int
}

// String renders the interval compactly: "3" or "0..4".
func (iv Interval) String() string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("%d..%d", iv.Lo, iv.Hi)
}

// PCFact is what the analysis knows about one instruction.
type PCFact struct {
	// Reachable reports whether any abstract execution path reaches
	// this pc. Unreachable instructions have zero-value intervals.
	Reachable bool

	// Depth bounds the data-stack depth on entry to the instruction,
	// joined over every calling context that reaches it. A negative Lo
	// means a path may arrive with fewer cells than some instruction
	// below needs — an unproven program.
	Depth Interval

	// RDepth bounds the return-stack height on entry, likewise.
	RDepth Interval
}

// Violation is one pc-precise reason a program is unproven. Violations
// are facts about the abstraction ("may underflow"), not necessarily
// about any concrete run; engines respond by keeping their dynamic
// checks, and VerifyStrict turns the first one into an error.
type Violation struct {
	PC  int
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("pc %d: %s", v.PC, v.Msg) }

// Facts is the artifact of Analyze: everything the abstract
// interpretation proved (or failed to prove) about a program.
type Facts struct {
	// Proved reports that every reachable instruction is safe without
	// dynamic stack checks: no data- or return-stack underflow, depths
	// within DepthCap/RDepthCap, every reachable OpExit provably pops a
	// return address pushed by a matching OpCall, and no reachable
	// instruction falls off the end of the code.
	Proved bool

	// MaxDepth and MaxRDepth bound the data- and return-stack cells
	// live at any moment of any run started with empty stacks. They are
	// meaningful (and ≤ the caps) exactly when Proved; engines add the
	// run's initial depths and compare against the actual stack sizes
	// before taking a check-elided path.
	MaxDepth  int
	MaxRDepth int

	// DepthCap and RDepthCap record the capacities the proof is
	// against.
	DepthCap  int
	RDepthCap int

	// PCs has one entry per instruction.
	PCs []PCFact

	// Violations lists everything that blocked the proof, sorted by pc
	// (a structurally invalid program yields a single pc -1 entry).
	Violations []Violation
}

// NoFacts is the sentinel callers attach to a machine to force the
// fully checked execution paths even for provable programs — the
// elision kill switch used by differential tests and benchmarks.
var NoFacts = &Facts{}

// Unreachable returns the pcs no abstract path reaches, ascending.
func (f *Facts) Unreachable() []int {
	var out []int
	for pc := range f.PCs {
		if !f.PCs[pc].Reachable {
			out = append(out, pc)
		}
	}
	return out
}

// Outcome renders the proof result as the service-facing label.
func (f *Facts) Outcome() string {
	if f != nil && f.Proved {
		return "proved"
	}
	return "unproven"
}

// Analyze runs the abstract interpretation over p and returns its
// Facts. It never fails: structurally invalid programs come back
// unproven with a pc -1 violation. Analyze is pure and deterministic:
// its worklists visit word contexts in creation order and each
// context's states in the order their pcs were first reached, so
// every join, and with it every widening, happens in the same order
// on every call. Callers cache the result per program
// (engine.FactsFor).
func Analyze(p *Program) *Facts {
	return analyze(p, AnalysisDepthCap, AnalysisRDepthCap)
}

// VerifyStrict is Verify plus the depth proof: it accepts exactly the
// programs whose every reachable instruction is statically safe, and
// reports the first violation pc-precisely otherwise. Engines do not
// require VerifyStrict — unproven programs simply execute with dynamic
// checks — but front ends can use it as a hard gate.
func VerifyStrict(p *Program) error {
	if err := Verify(p); err != nil {
		return err
	}
	if f := Analyze(p); !f.Proved {
		v := f.Violations[0]
		return fmt.Errorf("vm: pc %d: %s", v.PC, v.Msg)
	}
	return nil
}

// --- implementation ---

// interval is the internal half-open-ended lattice element. Bounds are
// clamped to ±(cap+1); cap+1 is the "may exceed capacity" sentinel
// (sticky, since no deeper value changes the verdict).
type interval struct{ lo, hi int }

func ivJoin(a, b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// pcState is the abstract state on entry to one pc in one word
// context: depth intervals relative to the word's entry.
type pcState struct {
	d, r   interval
	joins  int32
	pc     int32
	proc   int32 // the owning context's id; 0 marks an unclaimed slot
	next   int32 // analyzer.states index of this pc's state in another context; 0 = none
	inWork bool  // on the runProc worklist
}

// proc is one analysis context: either the program's top level (the
// code reachable from Entry outside any call frame) or a called word.
// The same pc can belong to several procs (a branch into another
// word's body); it gets independent relative states in each.
type proc struct {
	id     int32 // 1 + its index in analyzer.procs
	entry  int
	framed bool // entered by OpCall (a return address sits below the frame)
	queued bool // on run's or propagateAbs's worklist

	// states lists this context's analyzer.states indices in the order
	// their pcs were first reached: the fixed order every pass walks.
	states []int32

	// Summary: the join of the relative data depth at every frame-base
	// exit, i.e. the word's net stack effect. hasExit false means the
	// word (as far as proven paths go) never returns.
	netD    interval
	hasExit bool

	// Phase B: absolute entry-depth intervals, joined over call sites.
	absD, absR interval
	absLive    bool
	absJoins   int
}

type analyzer struct {
	p          *Program
	dcap, rcap int
	dlim, rlim int // cap+1 sentinels

	procs    []*proc // creation order; procs[0] is the top level
	framedAt []int32 // per pc: id of the word context entered there, 0 = none

	// states holds every (context, pc) state. Slot pc belongs to the
	// first context that reached pc; the rare pc that other contexts
	// also reach gets side entries past len(Code), chained from its
	// slot through next.
	states []pcState
	work   []int32 // runProc's worklist of states indices, reused

	budget int
	broke  bool // budget exhausted; result is unproven
}

func (a *analyzer) clampD(v int) int { return clamp(v, a.dlim) }
func (a *analyzer) clampR(v int) int { return clamp(v, a.rlim) }

func clamp(v, lim int) int {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// shiftD/shiftR move both interval bounds by a fixed net effect.
func (a *analyzer) shiftD(iv interval, by int) interval {
	return interval{a.clampD(iv.lo + by), a.clampD(iv.hi + by)}
}

func (a *analyzer) shiftR(iv interval, by int) interval {
	return interval{a.clampR(iv.lo + by), a.clampR(iv.hi + by)}
}

// addD/addR sum two intervals (absolute entry + relative offset).
func (a *analyzer) addD(x, y interval) interval {
	return interval{a.clampD(x.lo + y.lo), a.clampD(x.hi + y.hi)}
}

func (a *analyzer) addR(x, y interval) interval {
	return interval{a.clampR(x.lo + y.lo), a.clampR(x.hi + y.hi)}
}

func analyze(p *Program, dcap, rcap int) *Facts {
	n := len(p.Code)
	f := &Facts{DepthCap: dcap, RDepthCap: rcap, PCs: make([]PCFact, n)}
	if err := p.Validate(); err != nil {
		f.Violations = []Violation{{PC: -1, Msg: "not analyzable: " + err.Error()}}
		return f
	}
	a := &analyzer{
		p: p, dcap: dcap, rcap: rcap, dlim: dcap + 1, rlim: rcap + 1,
		framedAt: make([]int32, n),
		states:   make([]pcState, n),
		budget:   analysisBudget,
	}
	a.run()
	a.collect(f)
	return f
}

func (a *analyzer) newProc(entry int, framed bool) *proc {
	ps := &proc{id: int32(len(a.procs) + 1), entry: entry, framed: framed}
	a.procs = append(a.procs, ps)
	if framed {
		a.framedAt[entry] = ps.id
	}
	return ps
}

// callee returns (creating if needed) the context of the word entered
// at entry by OpCall.
func (a *analyzer) callee(entry int) *proc {
	if id := a.framedAt[entry]; id != 0 {
		return a.procs[id-1]
	}
	return a.newProc(entry, true)
}

// stateOf returns the states index of ps's state at pc, or -1.
func (a *analyzer) stateOf(ps *proc, pc int) int {
	for i := pc; ; {
		st := &a.states[i]
		if st.proc == ps.id {
			return i
		}
		if i = int(st.next); i == 0 {
			return -1
		}
	}
}

// addState claims a state for ps at pc: the pc's own slot when no
// context has reached it yet, a chained side entry otherwise.
func (a *analyzer) addState(ps *proc, pc int) int {
	si := pc
	if a.states[pc].proc != 0 {
		si = len(a.states)
		a.states = append(a.states, pcState{next: a.states[pc].next})
		a.states[pc].next = int32(si)
	}
	st := &a.states[si]
	st.proc, st.pc = ps.id, int32(pc)
	ps.states = append(ps.states, int32(si))
	return si
}

// calls reports whether any state of caller is an OpCall of entry.
func (a *analyzer) calls(caller *proc, entry int) bool {
	for _, si := range caller.states {
		ins := a.p.Code[a.states[si].pc]
		if ins.Op == OpCall && int(ins.Arg) == entry {
			return true
		}
	}
	return false
}

// run is phase A: the summary fixpoint. Each word context is
// (re)analyzed intra-procedurally until no summary changes; a word is
// re-queued when a callee's summary grows, which is what lets mutual
// recursion converge (to summaries whose depth consequences phase B
// then widens to "may overflow").
func (a *analyzer) run() {
	main := a.newProc(a.p.Entry, false)
	main.queued = true
	dirty := []*proc{main}
	for len(dirty) > 0 && !a.broke {
		ps := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		ps.queued = false
		known := len(a.procs)
		grew := a.runProc(ps)
		// Words discovered by this round's OpCall transfers must be
		// analyzed themselves before the result means anything.
		for _, np := range a.procs[known:] {
			np.queued = true
			dirty = append(dirty, np)
		}
		if grew && ps.framed {
			// This word's summary changed: every analyzed proc that
			// calls it must recompute. Call edges are implicit in the
			// states (an OpCall pc with a state), so rescan; proc
			// counts are small.
			for _, caller := range a.procs {
				if !caller.queued && a.calls(caller, ps.entry) {
					caller.queued = true
					dirty = append(dirty, caller)
				}
			}
		}
	}
	a.propagateAbs()
}

// joinState merges (d, r) into the proc's state at pc, returning the
// state's index and whether anything changed; widening kicks in after
// widenAfter growing joins.
func (a *analyzer) joinState(ps *proc, pc int, d, r interval) (int, bool) {
	si := a.stateOf(ps, pc)
	if si < 0 {
		si = a.addState(ps, pc)
		a.states[si].d, a.states[si].r = d, r
		return si, true
	}
	st := &a.states[si]
	nd, nr := ivJoin(st.d, d), ivJoin(st.r, r)
	if nd == st.d && nr == st.r {
		return si, false
	}
	st.joins++
	if st.joins > widenAfter {
		// Directional widening: a bound still moving after this many
		// joins is unbounded in the abstraction; send it straight to
		// its sentinel (the verdict is the same either way).
		nd = widen(nd, st.d, a.dlim)
		nr = widen(nr, st.r, a.rlim)
	}
	st.d, st.r = nd, nr
	return si, true
}

// widen sends whichever bounds of next moved past prev to the ±lim
// sentinels.
func widen(next, prev interval, lim int) interval {
	if next.lo < prev.lo {
		next.lo = -lim
	}
	if next.hi > prev.hi {
		next.hi = lim
	}
	return next
}

// runProc runs the intra-procedural worklist for one context and
// reports whether the proc's summary (netD/hasExit) grew.
func (a *analyzer) runProc(ps *proc) bool {
	code := a.p.Code
	n := len(code)
	work := a.work[:0]
	push := func(si int) {
		if st := &a.states[si]; !st.inWork {
			st.inWork = true
			work = append(work, int32(si))
		}
	}
	// (Re)seed: the entry at the frame-base state, plus every pc whose
	// state survived a previous round — their outgoing edges must be
	// replayed because a callee summary may have grown.
	a.joinState(ps, ps.entry, interval{0, 0}, interval{0, 0})
	for _, si := range ps.states {
		push(int(si))
	}

	oldNet, oldHas := ps.netD, ps.hasExit
	flow := func(to int, d, r interval) {
		if si, changed := a.joinState(ps, to, d, r); changed {
			push(si)
		}
	}

	for len(work) > 0 {
		if a.budget--; a.budget <= 0 {
			a.broke = true
			break
		}
		si := int(work[len(work)-1])
		work = work[:len(work)-1]
		// A copy: flows below may grow a.states. Only the loop
		// fall-through rereads the state, after its back edge's join.
		st := a.states[si]
		a.states[si].inWork = false
		pc := int(st.pc)
		ins := code[pc]
		eff := EffectOf(ins.Op)

		// The generic post-state: pops then pushes on both stacks.
		d := a.shiftD(st.d, eff.Out-eff.In)
		r := a.shiftR(st.r, eff.ROut-eff.RIn)

		switch ins.Op {
		case OpBranch:
			flow(int(ins.Arg), d, r)
		case OpBranchZero:
			flow(int(ins.Arg), d, r)
			if pc+1 < n {
				flow(pc+1, d, r)
			}
		case OpLoop, OpPlusLoop:
			// Back edge: loop controls stay (the table's RIn/ROut
			// cancel). Fall-through: both controls popped.
			flow(int(ins.Arg), d, r)
			if pc+1 < n {
				flow(pc+1, d, a.shiftR(a.states[si].r, -2))
			}
		case OpCall:
			callee := a.callee(int(ins.Arg))
			if callee.hasExit && pc+1 < n {
				flow(pc+1, a.addD(st.d, callee.netD), st.r)
			}
		case OpExit:
			// Terminal here; a framed exit at the frame base is the
			// word's return, recorded in the summary. (Off-base exits
			// are unproven — collect() flags them — but joining their
			// depth keeps annotations defined.)
			if ps.framed {
				if !ps.hasExit {
					ps.hasExit, ps.netD = true, st.d
				} else {
					ps.netD = ivJoin(ps.netD, st.d)
				}
			}
		case OpHalt:
			// Terminal.
		default:
			if pc+1 < n {
				flow(pc+1, d, r)
			}
		}
	}
	a.work = work
	return !a.broke && (ps.netD != oldNet || ps.hasExit != oldHas)
}

// propagateAbs is phase B: absolute entry intervals per context, joined
// over call sites, with widening so recursive cycles reach the
// capacity sentinel instead of iterating forever.
func (a *analyzer) propagateAbs() {
	code := a.p.Code
	main := a.procs[0]
	main.absLive = true
	main.absD, main.absR = interval{0, 0}, interval{0, 0}
	main.queued = true
	work := []*proc{main}
	for len(work) > 0 && !a.broke {
		if a.budget--; a.budget <= 0 {
			a.broke = true
			return
		}
		ps := work[len(work)-1]
		work = work[:len(work)-1]
		ps.queued = false
		for _, si := range ps.states {
			st := &a.states[si]
			ins := code[st.pc]
			if ins.Op != OpCall {
				continue
			}
			callee := a.callee(int(ins.Arg))
			// The callee enters at the caller's depth here; its frame
			// base sits above the pushed return address.
			cd := a.addD(ps.absD, st.d)
			cr := a.addR(ps.absR, st.r)
			cr = a.shiftR(cr, 1)
			changed := false
			if !callee.absLive {
				callee.absLive = true
				callee.absD, callee.absR = cd, cr
				changed = true
			} else {
				nd, nr := ivJoin(callee.absD, cd), ivJoin(callee.absR, cr)
				if nd != callee.absD || nr != callee.absR {
					callee.absJoins++
					if callee.absJoins > widenAfter {
						nd = widen(nd, callee.absD, a.dlim)
						nr = widen(nr, callee.absR, a.rlim)
					}
					callee.absD, callee.absR = nd, nr
					changed = true
				}
			}
			if changed && !callee.queued {
				callee.queued = true
				work = append(work, callee)
			}
		}
	}
}

// collect is the final, non-mutating pass: absolute per-pc intervals,
// the proven maxima, and every violation — checked once, with the
// converged values, so messages are stable.
func (a *analyzer) collect(f *Facts) {
	code := a.p.Code
	n := len(code)
	addV := func(pc int, format string, args ...any) {
		f.Violations = append(f.Violations, Violation{PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	if a.broke {
		addV(-1, "analysis budget exceeded; program too adversarial to prove")
	}

	depthStr := func(v, cap int) string {
		if v > cap {
			return "unbounded"
		}
		return fmt.Sprintf("%d", v)
	}

	maxD, maxR := 0, 0
	for _, ps := range a.procs {
		if !ps.absLive {
			continue
		}
		for _, si := range ps.states {
			st := &a.states[si]
			pc := int(st.pc)
			// A superinstruction is checked and reported as its first
			// constituent, whose effect it has: a quickened program's
			// facts deep-equal its unquickened form's (Proof.Quicken).
			ins := CanonicalInstr(code[pc])
			eff := EffectOf(ins.Op)
			ad := a.addD(ps.absD, st.d)
			ar := a.addR(ps.absR, st.r)

			// Per-pc annotation: join over contexts.
			pf := &f.PCs[pc]
			if !pf.Reachable {
				pf.Reachable = true
				pf.Depth = Interval{ad.lo, ad.hi}
				pf.RDepth = Interval{ar.lo, ar.hi}
			} else {
				pf.Depth = Interval{min(pf.Depth.Lo, ad.lo), max(pf.Depth.Hi, ad.hi)}
				pf.RDepth = Interval{min(pf.RDepth.Lo, ar.lo), max(pf.RDepth.Hi, ar.hi)}
			}

			// Data stack: underflow against the guaranteed minimum,
			// overflow against the in-instruction peak.
			if eff.In > ad.lo {
				addV(pc, "data stack may underflow: %s needs %d, depth may be %d",
					ins.Op, eff.In, ad.lo)
			}
			peak := max(ad.hi, ad.hi-eff.In+eff.Out)
			if peak > a.dcap {
				addV(pc, "data stack may overflow: depth may reach %s (capacity %d)",
					depthStr(peak, a.dcap), a.dcap)
			}
			maxD = max(maxD, peak)

			// Return stack.
			rpeak := max(ar.hi, ar.hi-eff.RIn+eff.ROut)
			switch ins.Op {
			case OpExit:
				if ar.lo < 1 {
					addV(pc, "return stack may underflow: exit needs 1, height may be %d", ar.lo)
				} else if !ps.framed || st.r.lo != 0 || st.r.hi != 0 {
					addV(pc, "exit return address is not provably a call return (frame height %d..%d)",
						st.r.lo, st.r.hi)
				}
			case OpCall:
				rpeak = max(rpeak, ar.hi+1)
				// A budget-cut analysis may not have created the callee.
				if id := a.framedAt[ins.Arg]; pc+1 >= n && id != 0 && a.procs[id-1].hasExit {
					addV(pc, "call return address %d is outside the code", pc+1)
				}
			default:
				if eff.RIn > 0 {
					if eff.RIn > ar.lo {
						addV(pc, "return stack may underflow: %s needs %d, height may be %d",
							ins.Op, eff.RIn, ar.lo)
					} else if ps.framed && eff.RIn > st.r.lo {
						addV(pc, "%s may reach the word's return address (frame height may be %d)",
							ins.Op, st.r.lo)
					}
				}
			}
			if rpeak > a.rcap {
				addV(pc, "return stack may overflow: depth may reach %s (capacity %d)",
					depthStr(rpeak, a.rcap), a.rcap)
			}
			maxR = max(maxR, rpeak)

			// Falling off the end of the code: any op whose successor
			// set includes pc+1 == len(code). (A last-pc OpCall is the
			// out-of-range return address flagged above.)
			switch ins.Op {
			case OpBranch, OpExit, OpHalt, OpCall:
			default:
				if pc+1 >= n {
					addV(pc, "execution may fall off the end of the code")
				}
			}
		}
	}

	// Contexts sharing a pc can report the same violation: sort, then
	// drop the repeats.
	slices.SortFunc(f.Violations, func(x, y Violation) int {
		if c := cmp.Compare(x.PC, y.PC); c != 0 {
			return c
		}
		return strings.Compare(x.Msg, y.Msg)
	})
	f.Violations = slices.Compact(f.Violations)
	f.MaxDepth, f.MaxRDepth = maxD, maxR
	f.Proved = len(f.Violations) == 0
}
