package compiled

// Fusion: straight-line blocks → folded, fused closure chains. A block
// is lowered once into a preamble (one step-budget check, and — in the
// checked variant — one stack-depth precheck covering every instruction
// in the block) followed by a chain of nodes that call each other
// directly, so the trampoline in Run only turns over at control
// transfers. Node bodies carry no stack-depth checks in either variant:
// the preamble either proved the whole block safe or bailed to the
// single-step fallback (one instruction of the switch interpreter, see
// step), which is what makes deleting the checks in the elided variant
// a one-line difference (the preamble's depth test goes away) rather
// than a second code generator.

import (
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// fInst is one fast-path unit after folding: a (possibly synthetic)
// instruction plus the span of original instructions it covers. pc is
// the first covered pc and n the covered count — together they let
// error paths rewind the block's bulk step accounting to the baseline's
// exact count, and folded literals keep the step cost of the
// instructions they replaced.
type fInst struct {
	op  vm.Opcode
	arg vm.Cell
	pc  int
	n   int64
}

// lowerBlock compiles the block [L, end) into its entry closure.
func (v *variant) lowerBlock(L, end int, mode buildMode) op {
	k := int64(end - L)
	needLow, hi, rneedLow, rhi := blockNeeds(v.code[L:end])
	fis := foldBlock(v.code, L, end, &v.stats)
	v.stats.Instructions += int(k)

	first := v.fuseNodes(fis, end)

	// Tabulate the block's fast entry so predecessors' transfers can
	// run the precheck inline (the goTo guard loop) and skip the
	// preamble dispatch entirely. Control-transfer blocks — the most
	// frequent block shape in Forth-style code (a bare call, exit,
	// branch, or a test feeding a 0branch) — additionally classify to a
	// guard kind the transfer loop executes in place, with no dispatch
	// at all; the closure chain built below still backs them for
	// run-entry and bail-out. The elided variant's guard carries no
	// depth bounds — only the step charge survives codegen.
	if needLow <= 255 && hi <= 255 && rneedLow <= 255 && rhi <= 255 {
		g := guard{k: int32(k)}
		if mode == buildChecked {
			g.needLow, g.hi, g.rneedLow, g.rhi =
				uint8(needLow), uint8(hi), uint8(rneedLow), uint8(rhi)
		}
		cand, cc := g, guardConsts{}
		if v.controlKind(&cand, &cc, fis, end) {
			g = cand
			v.gc[L] = cc
		} else {
			g.kind, g.first = kFirst, first
		}
		v.g[L] = g
	}

	if mode == buildElided {
		// Proved program: vm.Analyze showed every reachable depth fits,
		// so codegen emits no depth test at all — only the step budget
		// remains, because budgets are per-run, not per-program.
		return func(s *state, sp, rp int) (op, int, int) {
			if s.steps+k > s.limit {
				return v.step(s, L, sp, rp)
			}
			s.steps += k
			return first(s, sp, rp)
		}
	}
	// The checked preamble bails to the single-step fallback when it
	// cannot promise the whole block. That step is the switch
	// interpreter's own, so if it errors, that IS the baseline's error;
	// if not, the trampoline continues at the pc switch stopped at and
	// re-enters a preamble only at the next block leader. Specialized
	// shapes skip check groups that are statically vacuous — most
	// blocks never touch the return stack, and control-only blocks
	// have no depth profile at all.
	touchesData := needLow != 0 || hi != 0
	touchesRet := rneedLow != 0 || rhi != 0
	switch {
	case touchesData && touchesRet:
		return func(s *state, sp, rp int) (op, int, int) {
			if s.steps+k > s.limit ||
				sp < needLow || sp+hi > len(s.st) ||
				rp < rneedLow || rp+rhi > len(s.rs) {
				return v.step(s, L, sp, rp)
			}
			s.steps += k
			return first(s, sp, rp)
		}
	case touchesData:
		return func(s *state, sp, rp int) (op, int, int) {
			if s.steps+k > s.limit ||
				sp < needLow || sp+hi > len(s.st) {
				return v.step(s, L, sp, rp)
			}
			s.steps += k
			return first(s, sp, rp)
		}
	case touchesRet:
		return func(s *state, sp, rp int) (op, int, int) {
			if s.steps+k > s.limit ||
				rp < rneedLow || rp+rhi > len(s.rs) {
				return v.step(s, L, sp, rp)
			}
			s.steps += k
			return first(s, sp, rp)
		}
	default:
		return func(s *state, sp, rp int) (op, int, int) {
			if s.steps+k > s.limit {
				return v.step(s, L, sp, rp)
			}
			s.steps += k
			return first(s, sp, rp)
		}
	}
}

// controlKind tries to lower the whole folded block into guard form: a
// terminator kind the goTo transfer loop executes in place, preceded
// by the block's leading instructions as (at most) leading sp/rp
// adjustments plus up to four fused prefix closures in the guard's
// direct preF slots. The lead lowers to closures through symbolic
// preDescs: plain infallible opcodes (stack/rstack shuffles,
// arithmetic, comparisons, loop-index reads), literal pushes, literal
// right-operand binops (1+/1-/lit-add canonicalize here and adjacent
// ones merge), and constant-address memory ops whose touched byte
// range is known statically — the guard's memHi bound is checked once
// at entry, so no pre body validates an address. The terminator's own
// comparison constant (kLitCmp0Br/kDupLitCmp0Br) lives in the guard
// consts' c slot.
//
// The function fills g and reports whether the lowering succeeded; on
// false the caller must discard g (it may be partially written) and
// fall back to the kFirst closure chain. Declined shapes: more than 4
// prefix closures after fusion, fallible ops (division,
// dynamic-address memory, I/O), +loop, and any static target outside
// [0, n] — the packed int32 would corrupt the target the
// out-of-range pc error must report, so those blocks stay on the
// exact cont path.
func (v *variant) controlKind(g *guard, gc *guardConsts, fis []fInst, end int) bool {
	live := fis[:0:0]
	for _, fi := range fis {
		if !fi.op.Valid() {
			return false // the block truncates at the invalid-opcode error
		}
		if fi.op != vm.OpNop {
			live = append(live, fi)
		}
	}
	target := func(arg vm.Cell) (int32, bool) {
		if arg < 0 || arg > vm.Cell(v.n) {
			return 0, false
		}
		return int32(arg), true
	}

	// Classify the terminator suffix and note how many trailing live
	// fInsts it consumes; everything before it must become pre bytes.
	consumed := 0
	if n := len(live); n > 0 && vm.EffectOf(live[n-1].op).Control {
		fi := live[n-1]
		fall := int32(fi.pc + int(fi.n))
		switch fi.op {
		case vm.OpExit:
			g.kind, consumed = kExit, 1
		case vm.OpHalt:
			g.kind, g.a, consumed = kHalt, int32(fi.pc), 1
		case vm.OpCall:
			t, ok := target(fi.arg)
			if !ok {
				return false
			}
			g.kind, g.a, g.b, consumed = kCall, t, fall, 1
		case vm.OpBranch:
			t, ok := target(fi.arg)
			if !ok {
				return false
			}
			g.kind, g.a, consumed = kBranch, t, 1
		case vm.OpLoop:
			t, ok := target(fi.arg)
			if !ok {
				return false
			}
			g.kind, g.a, g.b, consumed = kLoop, t, fall, 1
		case vm.OpBranchZero:
			t, ok := target(fi.arg)
			if !ok {
				return false
			}
			g.kind, g.a, g.b, consumed = k0Branch, t, fall, 1
			if n >= 2 {
				switch live[n-2].op {
				case vm.OpEq, vm.OpNe, vm.OpLt, vm.OpGt, vm.OpLe, vm.OpGe, vm.OpULt:
					if n >= 3 && live[n-3].op == vm.OpLit {
						if n >= 4 && live[n-4].op == vm.OpDup {
							g.kind, g.opc, gc.c, consumed = kDupLitCmp0Br, live[n-2].op, live[n-3].arg, 4
						} else {
							g.kind, g.opc, gc.c, consumed = kLitCmp0Br, live[n-2].op, live[n-3].arg, 3
						}
					} else {
						g.kind, g.opc, consumed = kCmp0Br, live[n-2].op, 2
					}
				case vm.OpZeroEq, vm.OpZeroNe, vm.OpZeroLt, vm.OpZeroGt:
					switch {
					case n >= 3 && live[n-3].op == vm.OpDup:
						g.kind, g.opc, consumed = kDupTest0Br, live[n-2].op, 3
					case n >= 3 && live[n-3].op == vm.OpRFetch:
						// The tested loop counter never touches the data
						// stack: read it where it lives.
						g.kind, g.opc, consumed = kRFetchTest0Br, live[n-2].op, 3
					default:
						g.kind, g.opc, consumed = kTest0Br, live[n-2].op, 2
					}
				case vm.OpDup:
					g.kind, consumed = kDup0Br, 2
				}
			}
		default: // +loop: stays on the cont path
			return false
		}
	} else {
		// No control terminator: the block falls through ("… |").
		// kBranch to end makes pure-prefix blocks guard-executable.
		g.kind, g.a = kBranch, int32(end)
	}

	// The lead lowers in two passes: first into descriptors (validating
	// that every op has a closure form and that constant-address memory
	// ops have a 16-bit static bound the guard's memHi entry gate can
	// cover), then into closures. The split lets the emitter fuse hot
	// adjacent pairs — stack shuffles feeding each other, a literal
	// feeding a constant-address store — into single closure bodies,
	// halving the indirect calls the composed prefix pays.
	lead := live[:len(live)-consumed]
	var descs []preDesc
	for i := 0; i < len(lead); i++ {
		fi := lead[i]
		switch fi.op {
		case vm.OpLit:
			if i+1 < len(lead) {
				if _, bound, ok := preMemConst(lead[i+1].op, fi.arg); ok {
					if fi.arg < 0 || bound > 65535 {
						return false
					}
					if hi := uint16(bound); hi > g.memHi {
						g.memHi = hi
					}
					descs = append(descs, preDesc{mem: lead[i+1].op, c: fi.arg})
					i++
					continue
				}
				// [lit c; binop] applies the literal to TOS in place,
				// the same fusion the node path's litOpNode does.
				if preLitOp(lead[i+1].op, fi.arg, 0) != nil {
					descs = append(descs, preDesc{litop: true, opc: lead[i+1].op, c: fi.arg})
					i++
					continue
				}
			}
			descs = append(descs, preDesc{lit: true, c: fi.arg})
		case vm.OpLitAdd:
			descs = append(descs, preDesc{litop: true, opc: vm.OpAdd, c: fi.arg})
		case vm.OpOnePlus:
			// Canonicalized to literal arithmetic so the litop pair and
			// triple shapes below see through 1+/1-.
			descs = append(descs, preDesc{litop: true, opc: vm.OpAdd, c: 1})
		case vm.OpOneMinus:
			descs = append(descs, preDesc{litop: true, opc: vm.OpSub, c: 1})
		default:
			if preOpFor(fi.op) == nil {
				return false
			}
			descs = append(descs, preDesc{opc: fi.op})
		}
	}
	// Adjacent literal ops on TOS merge into one descriptor: +/- chains
	// sum a wrapping net constant ("lit - 1+" becomes one add), and/or/
	// xor chains fold pointwise. Wrapping int64 arithmetic keeps the
	// merged op bit-identical to the two-step baseline.
	merged := descs[:0]
	for _, d := range descs {
		if n := len(merged); n > 0 && d.litop && merged[n-1].litop {
			p := &merged[n-1]
			switch {
			case (p.opc == vm.OpAdd || p.opc == vm.OpSub) &&
				(d.opc == vm.OpAdd || d.opc == vm.OpSub):
				net := p.c
				if p.opc == vm.OpSub {
					net = -net
				}
				if d.opc == vm.OpAdd {
					net += d.c
				} else {
					net -= d.c
				}
				p.opc, p.c = vm.OpAdd, net
				continue
			case p.opc == vm.OpAnd && d.opc == vm.OpAnd:
				p.c &= d.c
				continue
			case p.opc == vm.OpOr && d.opc == vm.OpOr:
				p.c |= d.c
				continue
			case p.opc == vm.OpXor && d.opc == vm.OpXor:
				p.c ^= d.c
				continue
			}
		}
		merged = append(merged, d)
	}
	descs = merged
	// Leading pure stack motion costs zero closures: the transfer loop
	// adjusts sp/rp inline from the guard's spAdj/rpAdj before any pre
	// runs. The entry gate still checks the original block's depth
	// profile, so the adjusted pointers stay in bounds. The int8 fields
	// cap the strip at a depth no real block approaches.
	for len(descs) > 0 && g.spAdj > -100 && g.rpAdj > -100 {
		d := descs[0]
		if d.lit || d.litop || d.mem != vm.OpNop {
			break
		}
		if d.opc == vm.OpDrop {
			g.spAdj--
			descs = descs[1:]
			continue
		}
		if d.opc == vm.OpTwoDrop {
			g.spAdj -= 2
			descs = descs[1:]
			continue
		}
		if d.opc == vm.OpRFrom && len(descs) >= 2 && descs[1].opc == vm.OpDrop &&
			!descs[1].lit && !descs[1].litop && descs[1].mem == vm.OpNop {
			// [r>; drop] pops the return stack into nowhere.
			g.rpAdj--
			descs = descs[2:]
			continue
		}
		break
	}
	var pres []preOp
	for i := 0; i < len(descs); i++ {
		d := descs[i]
		if i+2 < len(descs) {
			if f := preTripleFor(d, descs[i+1], descs[i+2]); f != nil {
				pres = append(pres, f)
				i += 2
				continue
			}
		}
		if i+1 < len(descs) {
			if f := prePairFor(d, descs[i+1]); f != nil {
				pres = append(pres, f)
				i++
				continue
			}
		}
		switch {
		case d.lit:
			c := d.c
			pres = append(pres, func(s *state, sp, rp int) (int, int) {
				s.st[sp] = c
				return sp + 1, rp
			})
		case d.mem != vm.OpNop:
			f, _, _ := preMemConst(d.mem, d.c)
			pres = append(pres, f)
		case d.litop:
			pres = append(pres, preLitOp(d.opc, d.c, 0))
		default:
			pres = append(pres, preOpFor(d.opc))
		}
	}
	if len(pres) > 4 {
		// Long straight-line prefixes run faster as their fused closure
		// chain (literal runs batch into single nodes there); guard form
		// stops paying past a few ops.
		return false
	}
	switch len(pres) {
	case 0:
	case 1:
		gc.preF, g.hasPre = pres[0], 1
	case 2:
		gc.preF, gc.preF2, g.hasPre = pres[0], pres[1], 2
	case 3:
		gc.preF, gc.preF2, gc.preF3, g.hasPre = pres[0], pres[1], pres[2], 3
	default:
		// Four closures: the tail pair shares the third slot.
		a, b := pres[2], pres[3]
		gc.preF, gc.preF2, g.hasPre = pres[0], pres[1], 3
		gc.preF3 = func(s *state, sp, rp int) (int, int) {
			sp, rp = a(s, sp, rp)
			return b(s, sp, rp)
		}
	}
	return true
}

// preDesc is the symbolic form of one pre closure before emission:
// exactly one of lit (a bare literal push of c), mem != OpNop (a
// constant-address memory op at address c), litop (binary opc with
// literal right operand c, applied to TOS in place), or plain opc
// applies.
type preDesc struct {
	opc   vm.Opcode
	lit   bool
	litop bool
	mem   vm.Opcode
	c     vm.Cell
}

// preLitOp builds the closure for a binary op whose right operand is
// the literal c, applied in place to the stack cell n below TOS
// (n = 0: TOS itself). nil means the op does not lit-fuse as a pre.
func preLitOp(opc vm.Opcode, c vm.Cell, n int) preOp {
	d := 1 + n
	switch opc {
	case vm.OpAdd:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] += c
			return sp, rp
		}
	case vm.OpSub:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] -= c
			return sp, rp
		}
	case vm.OpMul:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] *= c
			return sp, rp
		}
	case vm.OpAnd:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] &= c
			return sp, rp
		}
	case vm.OpOr:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] |= c
			return sp, rp
		}
	case vm.OpXor:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] ^= c
			return sp, rp
		}
	case vm.OpMin:
		return func(s *state, sp, rp int) (int, int) {
			if c < s.st[sp-d] {
				s.st[sp-d] = c
			}
			return sp, rp
		}
	case vm.OpMax:
		return func(s *state, sp, rp int) (int, int) {
			if c > s.st[sp-d] {
				s.st[sp-d] = c
			}
			return sp, rp
		}
	case vm.OpLshift:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.ShiftLeft(s.st[sp-d], c)
			return sp, rp
		}
	case vm.OpRshift:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.ShiftRight(s.st[sp-d], c)
			return sp, rp
		}
	case vm.OpEq:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] == c)
			return sp, rp
		}
	case vm.OpNe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] != c)
			return sp, rp
		}
	case vm.OpLt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] < c)
			return sp, rp
		}
	case vm.OpGt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] > c)
			return sp, rp
		}
	case vm.OpLe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] <= c)
			return sp, rp
		}
	case vm.OpGe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(s.st[sp-d] >= c)
			return sp, rp
		}
	case vm.OpULt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-d] = interp.Flag(uint64(s.st[sp-d]) < uint64(c))
			return sp, rp
		}
	}
	return nil
}

// preTripleFor fuses three adjacent pre descriptors into a single
// closure body for shapes the workload census shows dominate whole
// programs (cross's shifter word is one such block); nil means no
// triple applies. Like pair fusion, a triple never changes the block's
// net effect or depth profile.
func preTripleFor(a, b, c preDesc) preOp {
	// [over; lit k op; or] folds a masked copy of NOS into TOS.
	if a.opc == vm.OpOver && !a.lit && !a.litop && a.mem == vm.OpNop &&
		b.litop && b.opc == vm.OpAnd &&
		c.opc == vm.OpOr && !c.lit && !c.litop && c.mem == vm.OpNop {
		k := b.c
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] |= s.st[sp-2] & k
			return sp, rp
		}
	}
	// [swap; lit k op; swap] applies the literal op to NOS in place.
	if a.opc == vm.OpSwap && !a.lit && !a.litop && a.mem == vm.OpNop &&
		b.litop &&
		c.opc == vm.OpSwap && !c.lit && !c.litop && c.mem == vm.OpNop {
		return preLitOp(b.opc, b.c, 1)
	}
	// [>r; r@; lit k +] copies TOS to the return stack and adjusts the
	// data-stack copy in place (the census shape is ">r r@ 1+").
	if a.opc == vm.OpToR && b.opc == vm.OpRFetch &&
		!a.lit && !a.litop && a.mem == vm.OpNop &&
		!b.lit && !b.litop && b.mem == vm.OpNop &&
		c.litop && c.opc == vm.OpAdd {
		k := c.c
		return func(s *state, sp, rp int) (int, int) {
			x := s.st[sp-1]
			s.rs[rp] = x
			s.st[sp-1] = x + k
			return sp, rp + 1
		}
	}
	return nil
}

// prePairFor fuses two adjacent pre descriptors into a single closure
// body when the pair is a known hot shape from the paper workloads'
// block census; nil means the pair stays as two closures. Fused pairs
// never change the block's net stack effect or depth profile, so the
// guard computed from the original instructions still gates them.
func prePairFor(a, b preDesc) preOp {
	// A literal feeding a constant-address store collapses into pure
	// memory traffic with no stack motion. The store's byte bound was
	// already folded into the guard's memHi when b was built.
	if a.lit && b.mem != vm.OpNop {
		v, addr := a.c, b.c
		switch b.mem {
		case vm.OpStore:
			return func(s *state, sp, rp int) (int, int) {
				s.m.SetCellAt(addr, v)
				return sp, rp
			}
		case vm.OpPlusStore:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.m.SetCellAt(addr, x+v)
				return sp, rp
			}
		case vm.OpCStore:
			return func(s *state, sp, rp int) (int, int) {
				s.m.SetByteAt(addr, v)
				return sp, rp
			}
		}
		return nil
	}
	// TOS duplicated into a constant-address accumulate: pure memory
	// traffic, the copy never lands on the stack.
	if a.opc == vm.OpDup && !a.lit && !a.litop && a.mem == vm.OpNop &&
		b.mem == vm.OpPlusStore {
		addr := b.c
		return func(s *state, sp, rp int) (int, int) {
			x, _ := s.m.CellAt(addr)
			s.m.SetCellAt(addr, x+s.st[sp-1])
			return sp, rp
		}
	}
	// [dup; lit k op] pushes op(TOS, k) without the intermediate copy.
	if a.opc == vm.OpDup && !a.lit && !a.litop && a.mem == vm.OpNop && b.litop {
		switch b.opc {
		case vm.OpAnd:
			k := b.c
			return func(s *state, sp, rp int) (int, int) {
				s.st[sp] = s.st[sp-1] & k
				return sp + 1, rp
			}
		case vm.OpAdd:
			k := b.c
			return func(s *state, sp, rp int) (int, int) {
				s.st[sp] = s.st[sp-1] + k
				return sp + 1, rp
			}
		case vm.OpSub:
			k := b.c
			return func(s *state, sp, rp int) (int, int) {
				s.st[sp] = s.st[sp-1] - k
				return sp + 1, rp
			}
		}
		return nil
	}
	// [swap; lit k op] swaps and applies the literal op to the new TOS.
	if a.opc == vm.OpSwap && !a.lit && !a.litop && a.mem == vm.OpNop && b.litop {
		switch b.opc {
		case vm.OpAdd:
			k := b.c
			return func(s *state, sp, rp int) (int, int) {
				st := s.st
				st[sp-2], st[sp-1] = st[sp-1], st[sp-2]+k
				return sp, rp
			}
		case vm.OpSub:
			k := b.c
			return func(s *state, sp, rp int) (int, int) {
				st := s.st
				st[sp-2], st[sp-1] = st[sp-1], st[sp-2]-k
				return sp, rp
			}
		}
		return nil
	}
	// A constant-address fetch feeding additive arithmetic skips the
	// push+pop round trip through the stack.
	if a.mem == vm.OpFetch && !b.lit && !b.litop && b.mem == vm.OpNop {
		addr := a.c
		switch b.opc {
		case vm.OpAdd:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp-1] += x
				return sp, rp
			}
		case vm.OpSub:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp-1] -= x
				return sp, rp
			}
		}
		return nil
	}
	// [lit a @; lit k op] pushes op(mem[a], k): the fetched cell is
	// compared or combined before it ever lands on the stack.
	if a.mem == vm.OpFetch && b.litop {
		addr, k := a.c, b.c
		switch b.opc {
		case vm.OpAdd:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = x + k
				return sp + 1, rp
			}
		case vm.OpSub:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = x - k
				return sp + 1, rp
			}
		case vm.OpAnd:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = x & k
				return sp + 1, rp
			}
		case vm.OpEq:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x == k)
				return sp + 1, rp
			}
		case vm.OpNe:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x != k)
				return sp + 1, rp
			}
		case vm.OpLt:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x < k)
				return sp + 1, rp
			}
		case vm.OpGt:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x > k)
				return sp + 1, rp
			}
		case vm.OpLe:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x <= k)
				return sp + 1, rp
			}
		case vm.OpGe:
			return func(s *state, sp, rp int) (int, int) {
				x, _ := s.m.CellAt(addr)
				s.st[sp] = interp.Flag(x >= k)
				return sp + 1, rp
			}
		}
		return nil
	}
	// [r@; lit k +] pushes the loop counter plus k without the copy.
	if a.opc == vm.OpRFetch && !a.lit && !a.litop && a.mem == vm.OpNop &&
		b.litop && b.opc == vm.OpAdd {
		k := b.c
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.rs[rp-1] + k
			return sp + 1, rp
		}
	}
	// [lit k cmp; or] folds the comparison flag straight into NOS.
	if a.litop && b.opc == vm.OpOr && !b.lit && !b.litop && b.mem == vm.OpNop {
		switch a.opc {
		case vm.OpEq, vm.OpNe, vm.OpLt, vm.OpGt, vm.OpLe, vm.OpGe, vm.OpULt:
			opc, k := a.opc, a.c
			return func(s *state, sp, rp int) (int, int) {
				s.st[sp-2] |= interp.Flag(cmpTrue(opc, s.st[sp-1], k))
				return sp - 1, rp
			}
		}
		return nil
	}
	if a.lit || b.lit || a.litop || b.litop ||
		a.mem != vm.OpNop || b.mem != vm.OpNop {
		return nil
	}
	switch [2]vm.Opcode{a.opc, b.opc} {
	case [2]vm.Opcode{vm.OpRot, vm.OpOver}:
		// x y z -> y z x z
		return func(s *state, sp, rp int) (int, int) {
			st := s.st
			x, y, z := st[sp-3], st[sp-2], st[sp-1]
			st[sp-3], st[sp-2], st[sp-1], st[sp] = y, z, x, z
			return sp + 1, rp
		}
	case [2]vm.Opcode{vm.OpToR, vm.OpRFetch}:
		// >r r@ removes TOS and immediately pushes it back: the data
		// stack is unchanged, the return stack gains a copy.
		return func(s *state, sp, rp int) (int, int) {
			s.rs[rp] = s.st[sp-1]
			return sp, rp + 1
		}
	case [2]vm.Opcode{vm.OpRFrom, vm.OpDrop}:
		// r> drop moves a cell across and discards it: pure rp motion.
		return func(s *state, sp, rp int) (int, int) {
			return sp, rp - 1
		}
	case [2]vm.Opcode{vm.OpTwoDrop, vm.OpDrop}:
		return func(s *state, sp, rp int) (int, int) {
			return sp - 3, rp
		}
	case [2]vm.Opcode{vm.OpDrop, vm.OpDrop}:
		return func(s *state, sp, rp int) (int, int) {
			return sp - 2, rp
		}
	case [2]vm.Opcode{vm.OpSwap, vm.OpDrop}:
		// nip
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = s.st[sp-1]
			return sp - 1, rp
		}
	case [2]vm.Opcode{vm.OpOver, vm.OpAdd}:
		// x y -> x y+x
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] += s.st[sp-2]
			return sp, rp
		}
	case [2]vm.Opcode{vm.OpOver, vm.OpSub}:
		// x y -> x y-x
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] -= s.st[sp-2]
			return sp, rp
		}
	}
	return nil
}

// preMemConst builds the closure for a constant-address memory op and
// returns the exclusive byte bound it touches. The mem helpers' ok
// results are discarded: the guard's memHi gate already proved
// bound <= len(m.Mem), which is exactly their success condition for a
// non-negative address.
func preMemConst(memOp vm.Opcode, addr vm.Cell) (preOp, vm.Cell, bool) {
	switch memOp {
	case vm.OpFetch:
		return func(s *state, sp, rp int) (int, int) {
			x, _ := s.m.CellAt(addr)
			s.st[sp] = x
			return sp + 1, rp
		}, addr + vm.CellSize, true
	case vm.OpCFetch:
		return func(s *state, sp, rp int) (int, int) {
			b, _ := s.m.ByteAt(addr)
			s.st[sp] = vm.Cell(b)
			return sp + 1, rp
		}, addr + 1, true
	case vm.OpStore:
		return func(s *state, sp, rp int) (int, int) {
			sp--
			s.m.SetCellAt(addr, s.st[sp])
			return sp, rp
		}, addr + vm.CellSize, true
	case vm.OpPlusStore:
		return func(s *state, sp, rp int) (int, int) {
			sp--
			x, _ := s.m.CellAt(addr)
			s.m.SetCellAt(addr, x+s.st[sp])
			return sp, rp
		}, addr + vm.CellSize, true
	case vm.OpCStore:
		return func(s *state, sp, rp int) (int, int) {
			sp--
			s.m.SetByteAt(addr, s.st[sp])
			return sp, rp
		}, addr + 1, true
	}
	return nil, 0, false
}

// foldBlock turns the block's instructions into fInsts and constant-
// folds literal-fed arithmetic to a fixpoint: [lit a; unop] and
// [lit a; lit b; binop] collapse into one literal (chains fold
// transitively), [lit; drop] and [lit; lit; 2drop] vanish into step-
// only nops. The values come from vm.EvalUnary and vm.EvalBinary, the
// arithmetic the dispatch loops run, so a fold cannot drift from them.
// Folding is observably safe because the block precheck is computed
// from the ORIGINAL instructions' effects (so the depth profile the
// baseline would have checked still gates entry), folded ops are
// exactly the ones that cannot fail mid-block (div/mod fold only for
// non-zero divisors), and the covered-count bookkeeping keeps step
// accounting exact.
func foldBlock(code []vm.Instr, L, end int, stats *Stats) []fInst {
	fis := make([]fInst, 0, end-L)
	for pc := L; pc < end; pc++ {
		fis = append(fis, fInst{op: code[pc].Op, arg: code[pc].Arg, pc: pc, n: 1})
	}
	for {
		changed := false
		for i := 0; i < len(fis); i++ {
			if fis[i].op != vm.OpLit {
				continue
			}
			if i+1 < len(fis) {
				if val, ok := fold1(fis[i+1].op, fis[i+1].arg, fis[i].arg); ok {
					fis[i] = fInst{op: vm.OpLit, arg: val, pc: fis[i].pc, n: fis[i].n + fis[i+1].n}
					fis = append(fis[:i+1], fis[i+2:]...)
					stats.Folded++
					changed = true
					continue
				}
				if fis[i+1].op == vm.OpDrop {
					fis[i] = fInst{op: vm.OpNop, pc: fis[i].pc, n: fis[i].n + fis[i+1].n}
					fis = append(fis[:i+1], fis[i+2:]...)
					stats.Folded++
					changed = true
					continue
				}
			}
			if i+2 < len(fis) && fis[i+1].op == vm.OpLit {
				if val, ok := vm.EvalBinary(fis[i+2].op, fis[i].arg, fis[i+1].arg); ok {
					fis[i] = fInst{op: vm.OpLit, arg: val, pc: fis[i].pc, n: fis[i].n + fis[i+1].n + fis[i+2].n}
					fis = append(fis[:i+1], fis[i+3:]...)
					stats.Folded += 2
					changed = true
					continue
				}
				if fis[i+2].op == vm.OpTwoDrop {
					fis[i] = fInst{op: vm.OpNop, pc: fis[i].pc, n: fis[i].n + fis[i+1].n + fis[i+2].n}
					fis = append(fis[:i+1], fis[i+3:]...)
					stats.Folded += 2
					changed = true
					continue
				}
			}
		}
		if !changed {
			return fis
		}
	}
}

// fold1 evaluates unary op(a) at compile time with the shared
// arithmetic of vm.EvalUnary, plus the one immediate-carrying unary op,
// lit-add. ok=false means op is not a pure, error-free unary data op.
func fold1(o vm.Opcode, arg, a vm.Cell) (vm.Cell, bool) {
	if o == vm.OpLitAdd {
		return a + arg, true
	}
	return vm.EvalUnary(o, a)
}

// fuseNodes builds the block's closure chain, right to left so every
// node captures its successor directly. Multi-op fusions come from the
// shared vm.Fusions table (the cursor sits on a sequence's last
// constituent and the matcher peeks left); unmatched lit pairs fuse
// generically, and anything else becomes a single node. `end` is the
// block's exclusive end pc — the fall-through continuation for blocks
// that end at a join rather than a control instruction.
func (v *variant) fuseNodes(fis []fInst, end int) op {
	// after[i] = original instructions covered by fis[i:] — the amount
	// the bulk step accounting must rewind when fis[i-1]'s node errors.
	after := make([]int64, len(fis)+1)
	for i := len(fis) - 1; i >= 0; i-- {
		after[i] = after[i+1] + fis[i].n
	}

	next := v.blockExit(end)
	i := len(fis) - 1

	// A control or invalid instruction is always last in the block.
	if i >= 0 && isTerminator(fis[i]) {
		if node, consumed := v.terminator(fis, i, end); node != nil {
			next = node
			i -= consumed
		}
	}

	for ; i >= 0; i-- {
		fi := fis[i]
		if fi.op == vm.OpNop {
			// Steps were counted in the preamble; nothing else to do —
			// the nop (or folded-away lit;drop) costs zero closures.
			continue
		}

		// The shared vm.Fusions table is the fusion vocabulary: the
		// same profile-mined sequences the quickener plants are lowered
		// here into dedicated multi-op closures, so a supermine update
		// propagates to AOT codegen with no code change in this file.
		if node, consumed := v.superNode(fis, i, after, next); node != nil {
			next = node
			i -= consumed - 1
			continue
		}

		switch {
		case fi.op == vm.OpLit:
			// Maximal literal run, pushed with one copy.
			j := i
			for j > 0 && fis[j-1].op == vm.OpLit {
				j--
			}
			if run := i - j + 1; run >= 2 {
				vals := make([]vm.Cell, run)
				for x := 0; x < run; x++ {
					vals[x] = fis[j+x].arg
				}
				next = v.litRunNode(vals, next)
				i = j
				continue
			}
			next = v.litNode(fi.arg, next)

		case i > 0 && fis[i-1].op == vm.OpLit && v.litFusable(fi):
			// Lit pairs outside the table (lit-sub, lit-and, lit-c@,
			// ...) still fuse generically.
			next = v.litOpNode(fis[i-1].arg, fi, after[i+1], next)
			i--

		default:
			next = v.singleNode(fi, after[i+1], next)
		}
	}
	return next
}

// superNode matches the longest vm.Fusions sequence ending at fis[i]
// (the fuser walks right to left, so the cursor is a sequence's LAST
// constituent) and lowers it to one fused closure. The table is
// ordered longest-first, matching the quickener's greedy preference.
// Returns (nil, 0) when no sequence ends here.
func (v *variant) superNode(fis []fInst, i int, after []int64, next op) (op, int) {
	for _, f := range vm.Fusions {
		if f.Shrink {
			// Shrink rules (OpLitAdd) are the front end's; their
			// standalone opcode is lowered by singleNode like any base
			// instruction.
			continue
		}
		l := len(f.Seq)
		j := i - l + 1
		if j < 0 {
			continue
		}
		match := true
		for k := 0; k < l; k++ {
			if fis[j+k].op != f.Seq[k] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if node, consumed := v.buildSuper(f.Super, fis, i, j, after, next); node != nil {
			return node, consumed
		}
	}
	return nil, 0
}

// buildSuper lowers one matched fusion sequence (fis[j..i], identified
// by its superinstruction opcode) into a fused closure, returning the
// node and the number of fInsts consumed. Every fallible constituent
// reproduces its exact baseline failure state: pending values are
// materialized on the stack and the bulk step accounting is rewound by
// the after[] amount covering the constituents past the failing one.
func (v *variant) buildSuper(super vm.Opcode, fis []fInst, i, j int, after []int64, next op) (op, int) {
	switch super {
	case vm.OpQLitLitFetchAdd:
		// [lit c; lit addr; @; +]. The @ is the only fallible step and
		// it is third in the quad, so the rewind must uncharge just the
		// trailing + : after[i].
		return v.litLitFetchAddNode(fis[j].arg, fis[j+1].arg, fis[j+2].pc, after[i], next), 4

	case vm.OpQLitFetchAddCFetch:
		// [lit addr; @; +; c@]. When yet another literal precedes the
		// sequence it is the +'s second operand — fold all five into
		// the fully-constant indexed byte load. The @ (with + and c@
		// still uncharged) rewinds after[i-1]; the c@ after[i+1].
		if j > 0 && fis[j-1].op == vm.OpLit {
			return v.litLitFetchAddCFetchNode(fis[j-1].arg, fis[j].arg,
				fis[j+1].pc, fis[i].pc, after[i-1], after[i+1], next), 5
		}
		return v.litFetchAddCFetchNode(fis[j].arg,
			fis[j+1].pc, fis[i].pc, after[i-1], after[i+1], next), 4

	case vm.OpQLitFetchLitGe:
		// [lit addr; @; lit b; >=]: @ (second of four) failing leaves
		// the trailing lit and >= uncharged: after[i-1].
		return v.litFetchLitGeNode(fis[j].arg, fis[j+2].arg, fis[j+1].pc, after[i-1], next), 4

	case vm.OpQSwapLitRshiftSwap:
		return v.swapLitRshiftSwapNode(fis[j+1].arg, next), 4

	case vm.OpQLitLshiftOverLit:
		return v.litLshiftOverLitNode(fis[j].arg, fis[i].arg, next), 4

	case vm.OpQLitLitPlusStore:
		return v.litLitPlusStoreNode(fis[j].arg, fis[j+1].arg, fis[i].pc, after[i+1], next), 3

	case vm.OpQDupLitEq:
		return v.dupLitEqNode(fis[j+1].arg, next), 3

	case vm.OpQLitFetchAdd:
		// [lit addr; @; +]: @ (second of three) failing leaves the +
		// uncharged: after[i].
		return v.litFetchAddNode(fis[j].arg, fis[j+1].pc, after[i], next), 3

	case vm.OpQLitFetch, vm.OpQLitPlusStore, vm.OpQLitEq:
		// The two-op lit-first sequences are exactly litOpNode's
		// territory; delegate so the table and the generic lit fusion
		// cannot drift apart.
		return v.litOpNode(fis[j].arg, fis[i], after[i+1], next), 2

	case vm.OpQAddCFetch:
		return v.addCFetchNode(fis[i].pc, after[i+1], next), 2
	}
	return nil, 0
}

// blockExit continues at the block's fall-through successor via the
// continuation table (the successor's entry closure is installed after
// this block is built, so it must be looked up at run time).
func (v *variant) blockExit(end int) op {
	return func(s *state, sp, rp int) (op, int, int) {
		return v.fallTo(s, end, sp, rp)
	}
}

func isTerminator(fi fInst) bool {
	if !fi.op.Valid() {
		return true
	}
	return vm.EffectOf(fi.op).Control
}

// litFusable reports whether op fuses with a literal immediately to its
// left into one node.
func (v *variant) litFusable(fi fInst) bool {
	switch fi.op {
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpAnd, vm.OpOr, vm.OpXor,
		vm.OpMin, vm.OpMax, vm.OpLshift, vm.OpRshift,
		vm.OpEq, vm.OpNe, vm.OpLt, vm.OpGt, vm.OpLe, vm.OpGe, vm.OpULt:
		return true
	case vm.OpDiv, vm.OpMod:
		return false // divisor on the stack would be the literal — handled in litOpNode only if non-zero
	case vm.OpFetch, vm.OpStore, vm.OpCFetch, vm.OpCStore, vm.OpPlusStore,
		vm.OpEmit:
		return true
	}
	return false
}

// litOpNode fuses [lit c; op] into one closure. The literal never
// materializes on the stack on the success path; error paths push it
// back first so the partial state matches the baseline's exactly.
func (v *variant) litOpNode(c vm.Cell, fi fInst, back int64, next op) op {
	v.stats.Nodes++
	pc := fi.pc
	switch fi.op {
	case vm.OpAdd:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] += c
			return next(s, sp, rp)
		}
	case vm.OpSub:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] -= c
			return next(s, sp, rp)
		}
	case vm.OpMul:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] *= c
			return next(s, sp, rp)
		}
	case vm.OpAnd:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] &= c
			return next(s, sp, rp)
		}
	case vm.OpOr:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] |= c
			return next(s, sp, rp)
		}
	case vm.OpXor:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] ^= c
			return next(s, sp, rp)
		}
	case vm.OpMin:
		return func(s *state, sp, rp int) (op, int, int) {
			if c < s.st[sp-1] {
				s.st[sp-1] = c
			}
			return next(s, sp, rp)
		}
	case vm.OpMax:
		return func(s *state, sp, rp int) (op, int, int) {
			if c > s.st[sp-1] {
				s.st[sp-1] = c
			}
			return next(s, sp, rp)
		}
	case vm.OpLshift:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.ShiftLeft(s.st[sp-1], c)
			return next(s, sp, rp)
		}
	case vm.OpRshift:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.ShiftRight(s.st[sp-1], c)
			return next(s, sp, rp)
		}
	case vm.OpEq:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] == c)
			return next(s, sp, rp)
		}
	case vm.OpNe:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] != c)
			return next(s, sp, rp)
		}
	case vm.OpLt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] < c)
			return next(s, sp, rp)
		}
	case vm.OpGt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] > c)
			return next(s, sp, rp)
		}
	case vm.OpLe:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] <= c)
			return next(s, sp, rp)
		}
	case vm.OpGe:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] >= c)
			return next(s, sp, rp)
		}
	case vm.OpULt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(uint64(s.st[sp-1]) < uint64(c))
			return next(s, sp, rp)
		}

	case vm.OpFetch:
		// lit addr; @ — the error path re-materializes the pushed
		// address (the baseline errors with it on the stack).
		return func(s *state, sp, rp int) (op, int, int) {
			x, ok := s.m.CellAt(c)
			if !ok {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpFetch, "memory access out of range", sp+1, rp)
			}
			s.st[sp] = x
			return next(s, sp+1, rp)
		}
	case vm.OpStore:
		return func(s *state, sp, rp int) (op, int, int) {
			if !s.m.SetCellAt(c, s.st[sp-1]) {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpStore, "memory access out of range", sp+1, rp)
			}
			return next(s, sp-1, rp)
		}
	case vm.OpCFetch:
		return func(s *state, sp, rp int) (op, int, int) {
			b, ok := s.m.ByteAt(c)
			if !ok {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpCFetch, "memory access out of range", sp+1, rp)
			}
			s.st[sp] = vm.Cell(b)
			return next(s, sp+1, rp)
		}
	case vm.OpCStore:
		return func(s *state, sp, rp int) (op, int, int) {
			if !s.m.SetByteAt(c, s.st[sp-1]) {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpCStore, "memory access out of range", sp+1, rp)
			}
			return next(s, sp-1, rp)
		}
	case vm.OpPlusStore:
		return func(s *state, sp, rp int) (op, int, int) {
			x, ok := s.m.CellAt(c)
			if !ok || !s.m.SetCellAt(c, x+s.st[sp-1]) {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpPlusStore, "memory access out of range", sp+1, rp)
			}
			return next(s, sp-1, rp)
		}
	case vm.OpEmit:
		return func(s *state, sp, rp int) (op, int, int) {
			m := s.m
			m.Out.WriteByte(byte(c))
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				s.st[sp] = c
				s.steps -= back
				return s.failAt(pc, vm.OpEmit, interp.MsgOutputLimit, sp+1, rp)
			}
			return next(s, sp, rp)
		}
	}
	// Unreachable by litFusable's contract; keep the unfused pair as a
	// safe fallback rather than panicking inside codegen.
	v.stats.Nodes--
	return v.litNode(c, v.singleNode(fi, back, next))
}

// litLitFetchAddNode fuses [lit c; lit addr; @; +] into one push of
// c + mem[addr]. On failure both literals — which the baseline had
// already pushed — are materialized before reporting @'s error.
func (v *variant) litLitFetchAddNode(c, addr vm.Cell, pc int, back int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok {
			st := s.st
			st[sp] = c
			st[sp+1] = addr
			s.steps -= back
			return s.failAt(pc, vm.OpFetch, "memory access out of range", sp+2, rp)
		}
		s.st[sp] = c + x
		return next(s, sp+1, rp)
	}
}

// litLitFetchAddCFetchNode fuses [lit c; lit addr; @; +; c@] — the
// indexed byte-table load that dominates the gray and prims2x traces —
// into one closure pushing mem[c + mem[addr]] as a byte. Each of the
// two fallible steps reproduces its exact baseline failure state.
func (v *variant) litLitFetchAddCFetchNode(c, addr vm.Cell, pcF, pcC int, backF, backC int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok {
			st := s.st
			st[sp] = c
			st[sp+1] = addr
			s.steps -= backF
			return s.failAt(pcF, vm.OpFetch, "memory access out of range", sp+2, rp)
		}
		a2 := c + x
		b, ok := s.m.ByteAt(a2)
		if !ok {
			s.st[sp] = a2
			s.steps -= backC
			return s.failAt(pcC, vm.OpCFetch, "memory access out of range", sp+1, rp)
		}
		s.st[sp] = vm.Cell(b)
		return next(s, sp+1, rp)
	}
}

// litFetchAddCFetchNode fuses [lit addr; @; +; c@] with a dynamic
// first addend (entry TOS): it pushes mem[y + mem[addr]] as a byte,
// consuming y. Each fallible step reproduces its baseline state.
func (v *variant) litFetchAddCFetchNode(addr vm.Cell, pcF, pcC int, backF, backC int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok {
			s.st[sp] = addr
			s.steps -= backF
			return s.failAt(pcF, vm.OpFetch, "memory access out of range", sp+1, rp)
		}
		a2 := s.st[sp-1] + x
		b, ok := s.m.ByteAt(a2)
		if !ok {
			s.st[sp-1] = a2
			s.steps -= backC
			return s.failAt(pcC, vm.OpCFetch, "memory access out of range", sp, rp)
		}
		s.st[sp-1] = vm.Cell(b)
		return next(s, sp, rp)
	}
}

// litFetchLitGeNode fuses [lit addr; @; lit b; >=] into one push of
// the flag mem[addr] >= b — the loop-bound test idiom. Only the @ can
// fail; its baseline state has just the address pushed.
func (v *variant) litFetchLitGeNode(addr, b vm.Cell, pc int, back int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok {
			s.st[sp] = addr
			s.steps -= back
			return s.failAt(pc, vm.OpFetch, "memory access out of range", sp+1, rp)
		}
		s.st[sp] = interp.Flag(x >= b)
		return next(s, sp+1, rp)
	}
}

// swapLitRshiftSwapNode fuses [swap; lit k; rshift; swap]: shift NOS
// right by k in place, leaving TOS untouched. Infallible.
func (v *variant) swapLitRshiftSwapNode(k vm.Cell, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		s.st[sp-2] = interp.ShiftRight(s.st[sp-2], k)
		return next(s, sp, rp)
	}
}

// litLshiftOverLitNode fuses [lit j; lshift; over; lit k]: TOS is
// shifted left by j in place, then the cell below it is copied up and
// k pushed. Infallible; net stack effect +2.
func (v *variant) litLshiftOverLitNode(j, k vm.Cell, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		st := s.st
		st[sp-1] = interp.ShiftLeft(st[sp-1], j)
		st[sp] = st[sp-2]
		st[sp+1] = k
		return next(s, sp+2, rp)
	}
}

// litLitPlusStoreNode fuses [lit val; lit addr; +!] into one in-place
// memory add of a constant at a constant address — the counter-bump
// idiom. On failure both literals are materialized before reporting
// +!'s error.
func (v *variant) litLitPlusStoreNode(val, addr vm.Cell, pc int, back int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok || !s.m.SetCellAt(addr, x+val) {
			st := s.st
			st[sp] = val
			st[sp+1] = addr
			s.steps -= back
			return s.failAt(pc, vm.OpPlusStore, "memory access out of range", sp+2, rp)
		}
		return next(s, sp, rp)
	}
}

// dupLitEqNode fuses [dup; lit c; =] into one push of the flag
// TOS == c, keeping TOS — the case-dispatch probe. Infallible.
func (v *variant) dupLitEqNode(c vm.Cell, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		s.st[sp] = interp.Flag(s.st[sp-1] == c)
		return next(s, sp+1, rp)
	}
}

// litFetchAddNode fuses [lit addr; @; +]: mem[addr] is added into TOS
// in place. On failure the address — which the baseline had already
// pushed — is materialized before reporting @'s error.
func (v *variant) litFetchAddNode(addr vm.Cell, pc int, back int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		x, ok := s.m.CellAt(addr)
		if !ok {
			s.st[sp] = addr
			s.steps -= back
			return s.failAt(pc, vm.OpFetch, "memory access out of range", sp+1, rp)
		}
		s.st[sp-1] += x
		return next(s, sp, rp)
	}
}

// addCFetchNode fuses [+; c@]: the summed address is consumed in
// place. On failure the sum — which the baseline's + had already
// written — is materialized before reporting c@'s error.
func (v *variant) addCFetchNode(pc int, back int64, next op) op {
	v.stats.Nodes++
	return func(s *state, sp, rp int) (op, int, int) {
		st := s.st
		a := st[sp-2] + st[sp-1]
		b, ok := s.m.ByteAt(a)
		if !ok {
			st[sp-2] = a
			s.steps -= back
			return s.failAt(pc, vm.OpCFetch, "memory access out of range", sp-1, rp)
		}
		st[sp-2] = vm.Cell(b)
		return next(s, sp-1, rp)
	}
}

// singleNode lowers one fInst into one closure with no stack-depth
// checks (the block preamble covered them) but with the op's own
// error conditions intact. Control ops are handled here too — the
// fuser routes them through terminator() first, but every opcode having
// a lowering keeps this switch total (and vmlint checks it).
func (v *variant) singleNode(fi fInst, back int64, next op) op {
	v.stats.Nodes++
	pc := fi.pc
	arg := fi.arg
	fall := fi.pc + int(fi.n)
	switch fi.op {
	case vm.OpNop:
		return func(s *state, sp, rp int) (op, int, int) {
			return next(s, sp, rp)
		}

	case vm.OpLit:
		return v.litNodeRaw(arg, next)

	case vm.OpAdd:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] += s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpSub:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] -= s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpMul:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] *= s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpDiv:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if st[sp-1] == 0 {
				s.steps -= back
				return s.failAt(pc, vm.OpDiv, "division by zero", sp, rp)
			}
			st[sp-2] = interp.FloorDiv(st[sp-2], st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpMod:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if st[sp-1] == 0 {
				s.steps -= back
				return s.failAt(pc, vm.OpMod, "division by zero", sp, rp)
			}
			st[sp-2] = interp.FloorMod(st[sp-2], st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpNegate:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = -s.st[sp-1]
			return next(s, sp, rp)
		}
	case vm.OpAbs:
		return func(s *state, sp, rp int) (op, int, int) {
			if s.st[sp-1] < 0 {
				s.st[sp-1] = -s.st[sp-1]
			}
			return next(s, sp, rp)
		}
	case vm.OpMin:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if st[sp-1] < st[sp-2] {
				st[sp-2] = st[sp-1]
			}
			return next(s, sp-1, rp)
		}
	case vm.OpMax:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if st[sp-1] > st[sp-2] {
				st[sp-2] = st[sp-1]
			}
			return next(s, sp-1, rp)
		}
	case vm.OpAnd:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] &= s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpOr:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] |= s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpXor:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] ^= s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpInvert:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = ^s.st[sp-1]
			return next(s, sp, rp)
		}
	case vm.OpLshift:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.ShiftLeft(st[sp-2], st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpRshift:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.ShiftRight(st[sp-2], st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpOnePlus:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1]++
			return next(s, sp, rp)
		}
	case vm.OpOneMinus:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1]--
			return next(s, sp, rp)
		}
	case vm.OpTwoStar:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] <<= 1
			return next(s, sp, rp)
		}
	case vm.OpTwoSlash:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] >>= 1
			return next(s, sp, rp)
		}
	case vm.OpCells:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] *= vm.CellSize
			return next(s, sp, rp)
		}
	case vm.OpLitAdd:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] += arg
			return next(s, sp, rp)
		}

	case vm.OpEq:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] == st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpNe:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] != st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpLt:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] < st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpGt:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] > st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpLe:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] <= st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpGe:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(st[sp-2] >= st[sp-1])
			return next(s, sp-1, rp)
		}
	case vm.OpULt:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-2] = interp.Flag(uint64(st[sp-2]) < uint64(st[sp-1]))
			return next(s, sp-1, rp)
		}
	case vm.OpZeroEq:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] == 0)
			return next(s, sp, rp)
		}
	case vm.OpZeroNe:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] != 0)
			return next(s, sp, rp)
		}
	case vm.OpZeroLt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] < 0)
			return next(s, sp, rp)
		}
	case vm.OpZeroGt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] > 0)
			return next(s, sp, rp)
		}

	case vm.OpDup:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.st[sp-1]
			return next(s, sp+1, rp)
		}
	case vm.OpDrop:
		return func(s *state, sp, rp int) (op, int, int) {
			return next(s, sp-1, rp)
		}
	case vm.OpSwap:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-1], st[sp-2] = st[sp-2], st[sp-1]
			return next(s, sp, rp)
		}
	case vm.OpOver:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.st[sp-2]
			return next(s, sp+1, rp)
		}
	case vm.OpRot:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-3], st[sp-2], st[sp-1] = st[sp-2], st[sp-1], st[sp-3]
			return next(s, sp, rp)
		}
	case vm.OpMinusRot:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp-3], st[sp-2], st[sp-1] = st[sp-1], st[sp-3], st[sp-2]
			return next(s, sp, rp)
		}
	case vm.OpNip:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp-2] = s.st[sp-1]
			return next(s, sp-1, rp)
		}
	case vm.OpTuck:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp] = st[sp-1]
			st[sp-1] = st[sp-2]
			st[sp-2] = st[sp]
			return next(s, sp+1, rp)
		}
	case vm.OpTwoDup:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			st[sp] = st[sp-2]
			st[sp+1] = st[sp-1]
			return next(s, sp+2, rp)
		}
	case vm.OpTwoDrop:
		return func(s *state, sp, rp int) (op, int, int) {
			return next(s, sp-2, rp)
		}

	case vm.OpToR:
		return func(s *state, sp, rp int) (op, int, int) {
			s.rs[rp] = s.st[sp-1]
			return next(s, sp-1, rp+1)
		}
	case vm.OpRFrom:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.rs[rp-1]
			return next(s, sp+1, rp-1)
		}
	case vm.OpRFetch:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.rs[rp-1]
			return next(s, sp+1, rp)
		}

	case vm.OpFetch:
		return func(s *state, sp, rp int) (op, int, int) {
			x, ok := s.m.CellAt(s.st[sp-1])
			if !ok {
				s.steps -= back
				return s.failAt(pc, vm.OpFetch, "memory access out of range", sp, rp)
			}
			s.st[sp-1] = x
			return next(s, sp, rp)
		}
	case vm.OpStore:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if !s.m.SetCellAt(st[sp-1], st[sp-2]) {
				s.steps -= back
				return s.failAt(pc, vm.OpStore, "memory access out of range", sp, rp)
			}
			return next(s, sp-2, rp)
		}
	case vm.OpCFetch:
		return func(s *state, sp, rp int) (op, int, int) {
			b, ok := s.m.ByteAt(s.st[sp-1])
			if !ok {
				s.steps -= back
				return s.failAt(pc, vm.OpCFetch, "memory access out of range", sp, rp)
			}
			s.st[sp-1] = vm.Cell(b)
			return next(s, sp, rp)
		}
	case vm.OpCStore:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			if !s.m.SetByteAt(st[sp-1], st[sp-2]) {
				s.steps -= back
				return s.failAt(pc, vm.OpCStore, "memory access out of range", sp, rp)
			}
			return next(s, sp-2, rp)
		}
	case vm.OpPlusStore:
		return func(s *state, sp, rp int) (op, int, int) {
			st := s.st
			addr := st[sp-1]
			x, ok := s.m.CellAt(addr)
			if !ok || !s.m.SetCellAt(addr, x+st[sp-2]) {
				s.steps -= back
				return s.failAt(pc, vm.OpPlusStore, "memory access out of range", sp, rp)
			}
			return next(s, sp-2, rp)
		}

	case vm.OpBranch:
		return func(s *state, sp, rp int) (op, int, int) {
			return v.goTo(s, int(arg), sp, rp)
		}
	case vm.OpBranchZero:
		return func(s *state, sp, rp int) (op, int, int) {
			sp--
			if s.st[sp] == 0 {
				return v.goTo(s, int(arg), sp, rp)
			}
			return v.fallTo(s, fall, sp, rp)
		}
	case vm.OpCall:
		return func(s *state, sp, rp int) (op, int, int) {
			s.rs[rp] = vm.Cell(fall)
			return v.goTo(s, int(arg), sp, rp+1)
		}
	case vm.OpExit:
		return func(s *state, sp, rp int) (op, int, int) {
			rp--
			return v.goTo(s, int(s.rs[rp]), sp, rp)
		}
	case vm.OpHalt:
		return func(s *state, sp, rp int) (op, int, int) {
			s.pc = pc
			return nil, sp, rp
		}

	case vm.OpDo:
		return func(s *state, sp, rp int) (op, int, int) {
			st, rs := s.st, s.rs
			rs[rp] = st[sp-2]
			rs[rp+1] = st[sp-1]
			return next(s, sp-2, rp+2)
		}
	case vm.OpLoop:
		return func(s *state, sp, rp int) (op, int, int) {
			rs := s.rs
			rs[rp-1]++
			if rs[rp-1] == rs[rp-2] {
				return v.fallTo(s, fall, sp, rp-2)
			}
			return v.goTo(s, int(arg), sp, rp)
		}
	case vm.OpPlusLoop:
		return func(s *state, sp, rp int) (op, int, int) {
			rs := s.rs
			n := s.st[sp-1]
			sp--
			old := rs[rp-1] - rs[rp-2]
			rs[rp-1] += n
			now := rs[rp-1] - rs[rp-2]
			if (old < 0) != (now < 0) {
				return v.fallTo(s, fall, sp, rp-2)
			}
			return v.goTo(s, int(arg), sp, rp)
		}
	case vm.OpI:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.rs[rp-1]
			return next(s, sp+1, rp)
		}
	case vm.OpJ:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = s.rs[rp-3]
			return next(s, sp+1, rp)
		}
	case vm.OpUnloop:
		return func(s *state, sp, rp int) (op, int, int) {
			return next(s, sp, rp-2)
		}

	case vm.OpEmit:
		return func(s *state, sp, rp int) (op, int, int) {
			m := s.m
			m.Out.WriteByte(byte(s.st[sp-1]))
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				s.steps -= back
				return s.failAt(pc, vm.OpEmit, interp.MsgOutputLimit, sp, rp)
			}
			return next(s, sp-1, rp)
		}
	case vm.OpDot:
		return func(s *state, sp, rp int) (op, int, int) {
			m := s.m
			writeDot(m, s.st[sp-1])
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				s.steps -= back
				return s.failAt(pc, vm.OpDot, interp.MsgOutputLimit, sp, rp)
			}
			return next(s, sp-1, rp)
		}
	case vm.OpType:
		return func(s *state, sp, rp int) (op, int, int) {
			m := s.m
			st := s.st
			addr, n := st[sp-2], st[sp-1]
			if !m.RangeOK(addr, n) {
				s.steps -= back
				return s.failAt(pc, vm.OpType, "memory access out of range", sp, rp)
			}
			m.Out.Write(m.Mem[addr : addr+n])
			if m.MaxOut > 0 && m.Out.Len() > m.MaxOut {
				s.steps -= back
				return s.failAt(pc, vm.OpType, interp.MsgOutputLimit, sp, rp)
			}
			return next(s, sp-2, rp)
		}
	case vm.OpDepth:
		return func(s *state, sp, rp int) (op, int, int) {
			s.st[sp] = vm.Cell(sp)
			return next(s, sp+1, rp)
		}
	case vm.OpQLitFetch, vm.OpQLitFetchAdd, vm.OpQLitLitFetchAdd,
		vm.OpQLitFetchAddCFetch, vm.OpQLitFetchLitGe, vm.OpQLitPlusStore,
		vm.OpQLitLitPlusStore, vm.OpQAddCFetch, vm.OpQLitEq, vm.OpQDupLitEq,
		vm.OpQSwapLitRshiftSwap, vm.OpQLitLshiftOverLit:
		// Unreachable: Compile unquickens before lowering, so the fuser
		// never sees a superinstruction. Kept total by de-fusing to the
		// first constituent's lowering (a superinstruction's observable
		// semantics are exactly its first constituent's).
		v.stats.Nodes-- // the recursive call counts this node
		fi.op = vm.Expansion(fi.op)[0]
		return v.singleNode(fi, back, next)
	default:
		// Invalid opcode: the baseline counts its step (the block
		// preamble already did) and reports it at this pc.
		badOp := fi.op
		return func(s *state, sp, rp int) (op, int, int) {
			return s.failAt(pc, badOp, "invalid opcode", sp, rp)
		}
	}
}

// litNode pushes one literal.
func (v *variant) litNode(c vm.Cell, next op) op {
	v.stats.Nodes++
	return v.litNodeRaw(c, next)
}

func (v *variant) litNodeRaw(c vm.Cell, next op) op {
	return func(s *state, sp, rp int) (op, int, int) {
		s.st[sp] = c
		return next(s, sp+1, rp)
	}
}

// litRunNode pushes a run of literals with one copy.
func (v *variant) litRunNode(vals []vm.Cell, next op) op {
	v.stats.Nodes++
	n := len(vals)
	return func(s *state, sp, rp int) (op, int, int) {
		copy(s.st[sp:sp+n], vals)
		return next(s, sp+n, rp)
	}
}

// terminator lowers the block's final control (or invalid) instruction,
// fusing a comparison or test immediately before a 0branch into one
// compare-and-branch node. Returns the node and how many fInsts it
// consumed.
func (v *variant) terminator(fis []fInst, i, end int) (op, int) {
	fi := fis[i]
	if fi.op == vm.OpBranchZero && i > 0 {
		t := int(fi.arg)
		fall := fi.pc + int(fi.n)
		prev := fis[i-1]
		switch prev.op {
		case vm.OpEq, vm.OpNe, vm.OpLt, vm.OpGt, vm.OpLe, vm.OpGe, vm.OpULt:
			v.stats.Nodes++
			cmp := prev.op
			return func(s *state, sp, rp int) (op, int, int) {
				st := s.st
				a, b := st[sp-2], st[sp-1]
				sp -= 2
				if cmpTrue(cmp, a, b) {
					return v.fallTo(s, fall, sp, rp)
				}
				return v.goTo(s, t, sp, rp)
			}, 2
		case vm.OpZeroEq, vm.OpZeroNe, vm.OpZeroLt, vm.OpZeroGt:
			v.stats.Nodes++
			test := prev.op
			return func(s *state, sp, rp int) (op, int, int) {
				x := s.st[sp-1]
				sp--
				if testTrue(test, x) {
					return v.fallTo(s, fall, sp, rp)
				}
				return v.goTo(s, t, sp, rp)
			}, 2
		case vm.OpLit:
			// Constant condition: the branch direction is known at
			// compile time. The literal's push/pop nets out; the
			// preamble's depth precheck still models it.
			v.stats.Nodes++
			if prev.arg == 0 {
				return func(s *state, sp, rp int) (op, int, int) {
					return v.goTo(s, t, sp, rp)
				}, 2
			}
			return func(s *state, sp, rp int) (op, int, int) {
				return v.fallTo(s, fall, sp, rp)
			}, 2
		case vm.OpDup:
			// dup; 0branch — test without consuming.
			v.stats.Nodes++
			return func(s *state, sp, rp int) (op, int, int) {
				if s.st[sp-1] == 0 {
					return v.goTo(s, t, sp, rp)
				}
				return v.fallTo(s, fall, sp, rp)
			}, 2
		}
	}
	return v.singleNode(fi, 0, nil), 1
}

func cmpTrue(o vm.Opcode, a, b vm.Cell) bool {
	switch o {
	case vm.OpEq:
		return a == b
	case vm.OpNe:
		return a != b
	case vm.OpLt:
		return a < b
	case vm.OpGt:
		return a > b
	case vm.OpLe:
		return a <= b
	case vm.OpGe:
		return a >= b
	default: // OpULt
		return uint64(a) < uint64(b)
	}
}

func testTrue(o vm.Opcode, x vm.Cell) bool {
	switch o {
	case vm.OpZeroEq:
		return x == 0
	case vm.OpZeroNe:
		return x != 0
	case vm.OpZeroLt:
		return x < 0
	default: // OpZeroGt
		return x > 0
	}
}

// preOpFor returns the inline closure for one plain infallible prefix
// opcode, or nil for every opcode that cannot be a pre: fallible ops
// (division by zero, dynamic-address memory), I/O (output budget),
// control (only ever a block's terminator), immediate-carrying ops
// (handled by the caller with the constant captured), depth (inspects
// sp), and nop (stripped before lowering). Bodies are exact ports of
// the switch baseline minus the checks the guard's entry gate already
// proved.
func preOpFor(opc vm.Opcode) preOp {
	switch opc {
	case vm.OpDup:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.st[sp-1]
			return sp + 1, rp
		}
	case vm.OpDrop:
		return func(s *state, sp, rp int) (int, int) { return sp - 1, rp }
	case vm.OpSwap:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1], s.st[sp-2] = s.st[sp-2], s.st[sp-1]
			return sp, rp
		}
	case vm.OpOver:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.st[sp-2]
			return sp + 1, rp
		}
	case vm.OpRot:
		return func(s *state, sp, rp int) (int, int) {
			st := s.st
			st[sp-3], st[sp-2], st[sp-1] = st[sp-2], st[sp-1], st[sp-3]
			return sp, rp
		}
	case vm.OpMinusRot:
		return func(s *state, sp, rp int) (int, int) {
			st := s.st
			st[sp-3], st[sp-2], st[sp-1] = st[sp-1], st[sp-3], st[sp-2]
			return sp, rp
		}
	case vm.OpNip:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpTuck:
		return func(s *state, sp, rp int) (int, int) {
			st := s.st
			st[sp] = st[sp-1]
			st[sp-1] = st[sp-2]
			st[sp-2] = st[sp]
			return sp + 1, rp
		}
	case vm.OpTwoDup:
		return func(s *state, sp, rp int) (int, int) {
			st := s.st
			st[sp] = st[sp-2]
			st[sp+1] = st[sp-1]
			return sp + 2, rp
		}
	case vm.OpTwoDrop:
		return func(s *state, sp, rp int) (int, int) { return sp - 2, rp }
	case vm.OpAdd:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] += s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpSub:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] -= s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpMul:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] *= s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpAnd:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] &= s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpOr:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] |= s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpXor:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] ^= s.st[sp-1]
			return sp - 1, rp
		}
	case vm.OpMin:
		return func(s *state, sp, rp int) (int, int) {
			if s.st[sp-1] < s.st[sp-2] {
				s.st[sp-2] = s.st[sp-1]
			}
			return sp - 1, rp
		}
	case vm.OpMax:
		return func(s *state, sp, rp int) (int, int) {
			if s.st[sp-1] > s.st[sp-2] {
				s.st[sp-2] = s.st[sp-1]
			}
			return sp - 1, rp
		}
	case vm.OpLshift:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.ShiftLeft(s.st[sp-2], s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpRshift:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.ShiftRight(s.st[sp-2], s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpNegate:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = -s.st[sp-1]
			return sp, rp
		}
	case vm.OpAbs:
		return func(s *state, sp, rp int) (int, int) {
			if s.st[sp-1] < 0 {
				s.st[sp-1] = -s.st[sp-1]
			}
			return sp, rp
		}
	case vm.OpInvert:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = ^s.st[sp-1]
			return sp, rp
		}
	case vm.OpOnePlus:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1]++
			return sp, rp
		}
	case vm.OpOneMinus:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1]--
			return sp, rp
		}
	case vm.OpTwoStar:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] <<= 1
			return sp, rp
		}
	case vm.OpTwoSlash:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] >>= 1
			return sp, rp
		}
	case vm.OpCells:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] *= vm.CellSize
			return sp, rp
		}
	case vm.OpEq:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] == s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpNe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] != s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpLt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] < s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpGt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] > s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpLe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] <= s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpGe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(s.st[sp-2] >= s.st[sp-1])
			return sp - 1, rp
		}
	case vm.OpULt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-2] = interp.Flag(uint64(s.st[sp-2]) < uint64(s.st[sp-1]))
			return sp - 1, rp
		}
	case vm.OpZeroEq:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] == 0)
			return sp, rp
		}
	case vm.OpZeroNe:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] != 0)
			return sp, rp
		}
	case vm.OpZeroLt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] < 0)
			return sp, rp
		}
	case vm.OpZeroGt:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp-1] = interp.Flag(s.st[sp-1] > 0)
			return sp, rp
		}
	case vm.OpToR:
		return func(s *state, sp, rp int) (int, int) {
			s.rs[rp] = s.st[sp-1]
			return sp - 1, rp + 1
		}
	case vm.OpRFrom:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.rs[rp-1]
			return sp + 1, rp - 1
		}
	case vm.OpRFetch, vm.OpI:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.rs[rp-1]
			return sp + 1, rp
		}
	case vm.OpJ:
		return func(s *state, sp, rp int) (int, int) {
			s.st[sp] = s.rs[rp-3]
			return sp + 1, rp
		}
	case vm.OpUnloop:
		return func(s *state, sp, rp int) (int, int) { return sp, rp - 2 }
	case vm.OpDo:
		return func(s *state, sp, rp int) (int, int) {
			s.rs[rp] = s.st[sp-2]
			s.rs[rp+1] = s.st[sp-1]
			return sp - 2, rp + 2
		}
	case vm.OpNop, vm.OpLit, vm.OpLitAdd, vm.OpDiv, vm.OpMod,
		vm.OpFetch, vm.OpStore, vm.OpCFetch, vm.OpCStore, vm.OpPlusStore,
		vm.OpBranch, vm.OpBranchZero, vm.OpCall, vm.OpExit, vm.OpHalt,
		vm.OpLoop, vm.OpPlusLoop,
		vm.OpEmit, vm.OpDot, vm.OpType, vm.OpDepth:
		return nil
	case vm.OpQLitFetch, vm.OpQLitFetchAdd, vm.OpQLitLitFetchAdd,
		vm.OpQLitFetchAddCFetch, vm.OpQLitFetchLitGe, vm.OpQLitPlusStore,
		vm.OpQLitLitPlusStore, vm.OpQAddCFetch, vm.OpQLitEq, vm.OpQDupLitEq,
		vm.OpQSwapLitRshiftSwap, vm.OpQLitLshiftOverLit:
		// Superinstructions never reach the fuser: Compile unquickens
		// first, and this engine refuses them in any other position too.
		return nil
	}
	return nil
}
