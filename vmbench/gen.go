package main

// Program generator for the tiny and cold workloads. Every program is
// built as a small syntax tree, rendered to Forth source, and evaluated
// directly by the tree walker in this file. The evaluator shares no
// code with the compiler, optimizer or engines under test, so the
// output and final stack it computes are an independent expectation
// for every response vmd returns.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

type opKind uint8

const (
	kLit  opKind = iota // push n; written as name when name is set (a constant)
	kPrim               // a primitive word: arithmetic, comparison, stack, i, j, .
	kCall               // call word n ("recurse" inside word n itself)
	kIf                 // pop a flag; body when nonzero, alt otherwise
	kLoop               // pop a limit >= 1; "0 do body loop"
	kVar                // name ("@", "!" or "+!") on variable n
)

type op struct {
	kind      opKind
	in        int // stack items a primitive consumes
	name      string
	n         int64
	body, alt []op
}

type word struct {
	name string
	body []op
}

// genProgram is one generated Forth program with everything needed to
// evaluate it: its helper words, variable count and the number of args
// main consumes.
type genProgram struct {
	Source string
	NArgs  int

	words []word // words[len-1] is main
	nvars int
}

// result is what a program leaves behind: printed output and the final
// data stack, bottom first.
type result struct {
	Output string
	Stack  []int64
}

// evalStepLimit bounds evaluation; generated programs stay far below
// it, so reaching it means the generator emitted an unbounded program.
const evalStepLimit = 1 << 20

type evaluator struct {
	p     *genProgram
	stack []int64
	loops []int64 // do-loop indices, innermost last
	vars  []int64
	out   strings.Builder
	steps int
	calls int
}

// Eval runs main on args (bottom first) and returns its result and the
// approximate number of VM instructions executed.
func (p *genProgram) Eval(args []int64) (result, int, error) {
	e := &evaluator{p: p, stack: append([]int64(nil), args...), vars: make([]int64, p.nvars)}
	if err := e.call(len(p.words) - 1); err != nil {
		return result{}, 0, err
	}
	st := e.stack
	if st == nil {
		st = []int64{}
	}
	return result{Output: e.out.String(), Stack: st}, e.steps, nil
}

func (e *evaluator) pop() int64 {
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v
}

func (e *evaluator) push(v int64) { e.stack = append(e.stack, v) }

func forthFlag(b bool) int64 {
	if b {
		return -1
	}
	return 0
}

// floorDiv and floorMod are Forth's floored division, written out here
// rather than taken from the VM package.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

func (e *evaluator) call(w int) error {
	e.calls++
	if e.calls > 64 {
		return fmt.Errorf("eval: call depth exceeds 64")
	}
	e.steps += 2 // call, exit
	err := e.run(e.p.words[w].body)
	e.calls--
	return err
}

func (e *evaluator) run(ops []op) error {
	for i := range ops {
		o := &ops[i]
		if e.steps > evalStepLimit {
			return fmt.Errorf("eval: step limit exceeded")
		}
		e.steps++
		need := o.in
		if o.kind == kIf || o.kind == kLoop || o.kind == kVar && o.name != "@" {
			need = 1
		}
		if len(e.stack) < need {
			return fmt.Errorf("eval: stack underflow at %q", o.name)
		}
		switch o.kind {
		case kLit:
			e.push(o.n)
		case kCall:
			if err := e.call(int(o.n)); err != nil {
				return err
			}
		case kIf:
			branch := o.alt
			if e.pop() != 0 {
				branch = o.body
			}
			if err := e.run(branch); err != nil {
				return err
			}
		case kLoop:
			limit := e.pop()
			if limit < 1 || limit > 1024 {
				return fmt.Errorf("eval: loop limit %d out of range", limit)
			}
			e.loops = append(e.loops, 0)
			for i := int64(0); i < limit; i++ {
				e.loops[len(e.loops)-1] = i
				if err := e.run(o.body); err != nil {
					return err
				}
				e.steps++
			}
			e.loops = e.loops[:len(e.loops)-1]
		case kVar:
			e.steps++ // the variable's address literal
			switch o.name {
			case "@":
				e.push(e.vars[o.n])
			case "!":
				e.vars[o.n] = e.pop()
			case "+!":
				e.vars[o.n] += e.pop()
			}
		case kPrim:
			if err := e.prim(o.name, o.in); err != nil {
				return err
			}
		}
	}
	return nil
}

// primArity is the number of stack items each primitive consumes.
var primArity = map[string]int{
	"+": 2, "-": 2, "*": 2, "and": 2, "or": 2, "xor": 2, "min": 2, "max": 2,
	"=": 2, "<>": 2, "<": 2, ">": 2, "/": 2, "mod": 2, "lshift": 2, "rshift": 2,
	"negate": 1, "abs": 1, "invert": 1, "1+": 1, "1-": 1, "2*": 1, "2/": 1,
	"0=": 1, "0<": 1, "0>": 1,
	"dup": 1, "drop": 1, "swap": 2, "over": 2, "rot": 3, "nip": 2, "tuck": 2, "2dup": 2,
	".": 1, "i": 0, "j": 0,
}

func (e *evaluator) prim(name string, in int) error {
	if in == 2 {
		switch name {
		case "swap", "over", "nip", "tuck", "2dup":
		default:
			b, a := e.pop(), e.pop()
			var v int64
			switch name {
			case "+":
				v = a + b
			case "-":
				v = a - b
			case "*":
				v = a * b
			case "and":
				v = a & b
			case "or":
				v = a | b
			case "xor":
				v = a ^ b
			case "min":
				v = min(a, b)
			case "max":
				v = max(a, b)
			case "=":
				v = forthFlag(a == b)
			case "<>":
				v = forthFlag(a != b)
			case "<":
				v = forthFlag(a < b)
			case ">":
				v = forthFlag(a > b)
			case "/", "mod":
				if b == 0 {
					return fmt.Errorf("eval: division by zero")
				}
				v = floorDiv(a, b)
				if name == "mod" {
					v = floorMod(a, b)
				}
			case "lshift":
				v = int64(uint64(a) << (uint64(b) & 63))
			case "rshift":
				v = int64(uint64(a) >> (uint64(b) & 63))
			}
			e.push(v)
			return nil
		}
	}
	st := e.stack
	n := len(st)
	switch name {
	case "negate":
		st[n-1] = -st[n-1]
	case "abs":
		if st[n-1] < 0 {
			st[n-1] = -st[n-1]
		}
	case "invert":
		st[n-1] = ^st[n-1]
	case "1+":
		st[n-1]++
	case "1-":
		st[n-1]--
	case "2*":
		st[n-1] <<= 1
	case "2/":
		st[n-1] >>= 1
	case "0=":
		st[n-1] = forthFlag(st[n-1] == 0)
	case "0<":
		st[n-1] = forthFlag(st[n-1] < 0)
	case "0>":
		st[n-1] = forthFlag(st[n-1] > 0)
	case "dup":
		e.push(st[n-1])
	case "drop":
		e.stack = st[:n-1]
	case "swap":
		st[n-1], st[n-2] = st[n-2], st[n-1]
	case "over":
		e.push(st[n-2])
	case "rot":
		st[n-3], st[n-2], st[n-1] = st[n-2], st[n-1], st[n-3]
	case "nip":
		st[n-2] = st[n-1]
		e.stack = st[:n-1]
	case "tuck":
		a, b := st[n-2], st[n-1]
		st[n-2], st[n-1] = b, a
		e.push(b)
	case "2dup":
		e.push(st[n-2])
		e.push(st[n-1])
	case ".":
		e.out.WriteString(strconv.FormatInt(e.pop(), 10))
		e.out.WriteByte(' ')
	case "i", "j":
		k := len(e.loops) - 1
		if name == "j" {
			k--
		}
		if k < 0 {
			return fmt.Errorf("eval: %s outside a loop", name)
		}
		e.push(e.loops[k])
	default:
		return fmt.Errorf("eval: unknown primitive %q", name)
	}
	return nil
}

// ---- rendering ----

func (p *genProgram) render(header string, nconst []int64) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for v := 0; v < p.nvars; v++ {
		fmt.Fprintf(&b, "variable v%d\n", v)
	}
	for k, c := range nconst {
		fmt.Fprintf(&b, "%d constant c%d\n", c, k)
	}
	for w, wd := range p.words {
		fmt.Fprintf(&b, ": %s", wd.name)
		writeOps(&b, p.words, w, wd.body)
		b.WriteString(" ;\n")
	}
	return b.String()
}

func writeOps(b *strings.Builder, words []word, self int, ops []op) {
	for _, o := range ops {
		b.WriteByte(' ')
		switch o.kind {
		case kLit:
			if o.name != "" {
				b.WriteString(o.name)
			} else {
				b.WriteString(strconv.FormatInt(o.n, 10))
			}
		case kPrim:
			b.WriteString(o.name)
		case kCall:
			if int(o.n) == self {
				b.WriteString("recurse")
			} else {
				b.WriteString(words[o.n].name)
			}
		case kIf:
			b.WriteString("if")
			writeOps(b, words, self, o.body)
			if o.alt != nil {
				b.WriteString(" else")
				writeOps(b, words, self, o.alt)
			}
			b.WriteString(" then")
		case kLoop:
			b.WriteString("0 do")
			writeOps(b, words, self, o.body)
			b.WriteString(" loop")
		case kVar:
			fmt.Fprintf(b, "v%d %s", o.n, o.name)
		}
	}
}

// size estimates the VM instructions ops compile to.
func size(ops []op) int {
	n := 0
	for _, o := range ops {
		switch o.kind {
		case kIf:
			n += 2 + size(o.body) + size(o.alt)
		case kLoop:
			n += 3 + size(o.body)
		case kVar:
			n += 2
		default:
			n++
		}
	}
	return n
}

// ---- generation ----

// maxAvail bounds the stack items a block keeps above its floor.
const maxAvail = 6

type gen struct {
	r      *rand.Rand
	words  []word // helpers defined so far, callable from later words
	arity  [][2]int
	rec    []int // indices of recursive words
	nvars  int
	consts []int64
	loops  int // do-loop nesting at the generation point
	prints int
}

func lit(n int64) op                  { return op{kind: kLit, n: n} }
func prim(name string) op             { return op{kind: kPrim, name: name, in: primArity[name]} }
func (g *gen) intn(n int) int         { return g.r.Intn(n) }
func (g *gen) pick(s []string) string { return s[g.r.Intn(len(s))] }

var (
	binOps   = []string{"+", "-", "*", "and", "or", "xor", "min", "max", "+", "-", "xor"}
	cmpOps   = []string{"=", "<>", "<", ">"}
	unaryOps = []string{"negate", "abs", "invert", "1+", "1-", "2*", "2/", "0=", "0<", "0>"}
)

// smallLit draws a literal, now and then from the declared constants.
func (g *gen) smallLit() op {
	if len(g.consts) > 0 && g.intn(4) == 0 {
		k := g.intn(len(g.consts))
		return op{kind: kLit, n: g.consts[k], name: "c" + strconv.Itoa(k)}
	}
	return lit(int64(g.intn(200) - 40))
}

// straight emits one straight-line operation at depth d over floor f.
// full enables calls, variables and printing.
func (g *gen) straight(f, d int, full bool) ([]op, int) {
	avail, room := d-f, maxAvail-(d-f)
	for {
		switch g.intn(12) {
		case 0, 1:
			if room >= 1 {
				return []op{g.smallLit()}, d + 1
			}
		case 2, 3:
			if avail >= 2 {
				return []op{prim(g.pick(binOps))}, d - 1
			}
		case 4:
			if avail >= 2 {
				return []op{prim(g.pick(cmpOps))}, d - 1
			}
		case 5:
			if avail >= 1 {
				return []op{prim(g.pick(unaryOps))}, d
			}
		case 6:
			if avail >= 1 {
				if g.intn(2) == 0 {
					return []op{lit(int64(1 + g.intn(13))), prim(g.pick([]string{"/", "mod"}))}, d
				}
				return []op{lit(int64(g.intn(8))), prim(g.pick([]string{"lshift", "rshift"}))}, d
			}
		case 7:
			switch s := g.pick([]string{"dup", "over", "tuck", "2dup", "drop", "swap", "nip", "rot"}); {
			case s == "dup" && avail >= 1 && room >= 1:
				return []op{prim(s)}, d + 1
			case s == "drop" && avail >= 2:
				return []op{prim(s)}, d - 1
			case (s == "over" || s == "tuck") && avail >= 2 && room >= 1:
				return []op{prim(s)}, d + 1
			case s == "2dup" && avail >= 2 && room >= 2:
				return []op{prim(s)}, d + 2
			case s == "swap" && avail >= 2, s == "rot" && avail >= 3:
				return []op{prim(s)}, d
			case s == "nip" && avail >= 2:
				return []op{prim(s)}, d - 1
			}
		case 8:
			if full && g.nvars > 0 {
				v := int64(g.intn(g.nvars))
				switch {
				case g.intn(2) == 0 && room >= 1:
					return []op{{kind: kVar, name: "@", n: v}}, d + 1
				case avail >= 2:
					return []op{{kind: kVar, name: g.pick([]string{"!", "+!", "+!"}), n: v}}, d - 1
				}
			}
		case 9:
			if full && avail >= 2 && g.prints < 12 {
				g.prints++
				return []op{prim(".")}, d - 1
			}
		case 10, 11:
			if !full {
				continue
			}
			if len(g.rec) > 0 && avail >= 1 && g.intn(3) == 0 {
				w := g.rec[g.intn(len(g.rec))]
				return []op{lit(15), prim("and"), {kind: kCall, n: int64(w)}}, d
			}
			if len(g.arity) > 0 {
				w := g.intn(len(g.arity))
				in, out := g.arity[w][0], g.arity[w][1]
				if avail >= in && room >= out-in {
					return []op{{kind: kCall, n: int64(w)}}, d - in + out
				}
			}
		}
	}
}

// fix appends operations that bring depth d to target (d >= f).
func (g *gen) fix(ops []op, d, target int) []op {
	for ; d > target; d-- {
		if d == 1 {
			ops = append(ops, prim("drop"))
			continue
		}
		ops = append(ops, prim(g.pick([]string{"+", "xor", "-"})))
	}
	for ; d < target; d++ {
		ops = append(ops, g.smallLit())
	}
	return ops
}

// block generates statements from depth d over floor f until it has
// spent n instructions, and returns the ops and the final depth.
func (g *gen) block(f, d, n int, full bool) ([]op, int) {
	var ops []op
	for used := 0; used < n; {
		var s []op
		switch k := g.intn(10); {
		case full && k == 0 && d-f >= 1 && d-f <= maxAvail-2 && n-used > 8:
			s, d = g.ifElse(f, d, n-used)
		case full && k == 1 && g.loops < 2 && d-f >= 1 && d-f < maxAvail && n-used > 10:
			s, d = g.loop(d, n-used)
		default:
			s, d = g.straight(f, d, full)
		}
		ops = append(ops, s...)
		used += size(s)
	}
	return ops, d
}

// ifElse pops a flag and runs one of two branches that agree on their
// stack effect; a branch may consume the item below the flag. One flag
// in three is a constant, which the optimizer's branch folding decides.
func (g *gen) ifElse(f, d, n int) ([]op, int) {
	var pre []op
	switch g.intn(3) {
	case 0:
		pre = []op{lit(int64(-g.intn(2)))}
	case 1:
		pre = []op{prim("dup"), lit(int64(g.intn(100))), prim(g.pick(cmpOps))}
	default:
		pre = []op{prim("dup"), prim(g.pick([]string{"0<", "0=", "0>"}))}
	}
	bf := max(f, d-1)
	half := min(n/2, 12+g.intn(12))/2 + 1
	body, e := g.block(bf, d, half, true)
	if g.intn(3) == 0 {
		return append(pre, op{kind: kIf, body: g.fix(body, e, d)}), d
	}
	alt, e2 := g.block(bf, d, half, true)
	return append(pre, op{kind: kIf, body: body, alt: g.fix(alt, e2, e)}), e
}

// loop emits "limit 0 do ... loop" whose body starts with the loop
// index and folds its results into the item below, so each iteration
// is stack-neutral.
func (g *gen) loop(d, n int) ([]op, int) {
	count := lit(int64(4 + g.intn(40)))
	g.loops++
	head := []op{prim("i")}
	if g.loops == 2 && g.intn(2) == 0 {
		head = append(head, prim("j"), prim(g.pick(binOps)))
	}
	body, e := g.block(d, d+1, min(n-4, 6+g.intn(18)), true)
	body = g.fix(append(head, body...), e, d)
	g.loops--
	return []op{count, {kind: kLoop, body: body}}, d
}

// helper defines a straight-line word of effect in -> out: short enough
// for the optimizer's inliner.
func (g *gen) helper() {
	in, out := 1+g.intn(2), 1
	body, d := g.block(0, in, 2+g.intn(4), false)
	body = g.fix(body, d, out)
	g.words = append(g.words, word{name: "h" + strconv.Itoa(len(g.words)), body: body})
	g.arity = append(g.arity, [2]int{in, out})
}

// recursive defines "dup 0> if dup 1- recurse OP then": n -> r(n), a
// word the stack-depth analysis cannot bound, like gray's parser.
func (g *gen) recursive() {
	w := len(g.words)
	body := []op{prim("dup"), prim("0>"), {kind: kIf, body: []op{
		prim("dup"), prim("1-"), {kind: kCall, n: int64(w)}, prim(g.pick([]string{"+", "xor", "max", "-"})),
	}}}
	g.words = append(g.words, word{name: "r" + strconv.Itoa(w), body: body})
	g.rec = append(g.rec, w)
}

func (g *gen) finish(mainBody []op, nargs int) *genProgram {
	return &genProgram{NArgs: nargs, nvars: g.nvars, words: append(g.words, word{name: "main", body: mainBody})}
}

// coldProgram generates a never-seen program of about 50-300
// instructions whose main runs a few thousand steps. It mixes inlinable
// helpers, constant arithmetic and branches, variable sites for
// quickening, loops, and in some programs a recursive word.
func coldProgram(seed uint64, index int) (*genProgram, result, error) {
	for attempt := 0; attempt < 64; attempt++ {
		r := rand.New(rand.NewSource(int64(mix(seed, uint64(index), uint64(attempt), 0xc01d))))
		g := &gen{r: r, nvars: 1 + r.Intn(4)}
		for k := r.Intn(4); k > 0; k-- {
			g.consts = append(g.consts, int64(r.Intn(1000)-200))
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			g.helper()
		}
		if r.Intn(3) == 0 {
			g.recursive()
		}
		target := 50 + r.Intn(251)
		for _, w := range g.words {
			target -= size(w.body) + 1
		}
		// The main body: constant arithmetic the optimizer folds, then
		// statements (loops included), then print what is left but one.
		mainBody := []op{lit(int64(r.Intn(50))), lit(int64(r.Intn(50))), prim("+"), lit(int64(2 + r.Intn(5))), prim("*")}
		body, d := g.block(0, 1, max(target-size(mainBody)-4, 8), true)
		mainBody = append(mainBody, body...)
		for ; d > 1; d-- {
			mainBody = append(mainBody, prim("."))
		}
		p := g.finish(mainBody, 0)
		res, steps, err := p.Eval(nil)
		if err != nil {
			return nil, result{}, err
		}
		if steps < 500 || steps > 12000 {
			continue
		}
		p.Source = p.render(fmt.Sprintf("\\ cold program %d-%d", seed, index), g.consts)
		return p, res, nil
	}
	return nil, result{}, fmt.Errorf("cold program %d-%d: no attempt met the step range", seed, index)
}

// tinyProgram generates a small args-driven program: arithmetic over
// 1-3 args, a call to an inlinable helper and a variable update. Even
// pool indices add one loop of at most 8, 16, 32 or 64 iterations whose
// count comes from an arg. The shape follows the index and only the
// operations follow the seed, so pools of different seeds cost alike.
func tinyProgram(seed uint64, index int) *genProgram {
	r := rand.New(rand.NewSource(int64(mix(seed, uint64(index), 0x7171))))
	g := &gen{r: r, nvars: 1}
	g.helper()
	nargs := 1 + index%3
	body, d := g.block(0, nargs, 3+r.Intn(6), false)
	if d == 0 {
		body, d = append(body, lit(int64(r.Intn(9)))), 1
	}
	if index%2 == 0 {
		// limit = (top & mask) + 1 from a copy of the top item
		mask := []int64{7, 15, 31, 63}[index/2%4]
		body = append(body, prim("dup"), lit(mask), prim("and"), prim("1+"))
		g.loops++
		lb, e := g.block(d, d+1, 2+r.Intn(3), false)
		g.loops--
		body = append(body, op{kind: kLoop, body: g.fix(append([]op{prim("i")}, lb...), e, d)})
	}
	if in := g.arity[0][0]; d >= in {
		body, d = append(body, op{kind: kCall, n: 0}), d-in+1
	}
	body = append(body, op{kind: kVar, name: "+!", n: 0}, op{kind: kVar, name: "@", n: 0})
	for ; d > 1; d-- {
		body = append(body, prim("."))
	}
	p := g.finish(body, nargs)
	p.Source = p.render(fmt.Sprintf("\\ tiny program %d-%d", seed, index), nil)
	return p
}

// mix hashes its inputs to one well-spread 64-bit value (splitmix64).
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}
