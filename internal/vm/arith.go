package vm

// Canonical cell arithmetic. These definitions are the single source
// of truth for the value semantics of the arithmetic and comparison
// opcodes: the baseline interpreters (internal/interp) delegate here,
// and the bytecode optimizer (optimize.go), the translation validator
// (checktrans.go) and the compiled engine's block folder evaluate
// constants with exactly these functions, so a fold can never drift
// from what the dispatch loops compute at run time.

// FloorDiv is Forth's floored division; the quotient rounds toward
// negative infinity. The divisor must be nonzero.
func FloorDiv(a, b Cell) Cell {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// FloorMod is the remainder matching FloorDiv; it has the sign of the
// divisor, which must be nonzero.
func FloorMod(a, b Cell) Cell {
	r := a % b
	if r != 0 && ((a < 0) != (b < 0)) {
		r += b
	}
	return r
}

// ShiftLeft implements OpLshift: the shift count is masked to the cell
// width, as on most hardware.
func ShiftLeft(a, u Cell) Cell { return a << (uint64(u) & 63) }

// ShiftRight implements OpRshift (logical shift).
func ShiftRight(a, u Cell) Cell { return Cell(uint64(a) >> (uint64(u) & 63)) }

// Flag is the canonical Forth boolean: -1 for true, 0 for false.
func Flag(b bool) Cell {
	if b {
		return -1
	}
	return 0
}

// EvalUnary evaluates a pure one-in/one-out data-stack opcode on a
// constant operand. It reports false for opcodes it does not handle;
// every opcode it does handle is total, so a true result is exactly
// what the dispatch loops would compute.
func EvalUnary(op Opcode, a Cell) (Cell, bool) {
	switch op {
	case OpNegate:
		return -a, true
	case OpAbs:
		if a < 0 {
			return -a, true
		}
		return a, true
	case OpInvert:
		return ^a, true
	case OpOnePlus:
		return a + 1, true
	case OpOneMinus:
		return a - 1, true
	case OpTwoStar:
		return a << 1, true
	case OpTwoSlash:
		return a >> 1, true
	case OpCells:
		return a * CellSize, true
	case OpZeroEq:
		return Flag(a == 0), true
	case OpZeroNe:
		return Flag(a != 0), true
	case OpZeroLt:
		return Flag(a < 0), true
	case OpZeroGt:
		return Flag(a > 0), true
	}
	return 0, false
}

// EvalBinary evaluates a pure two-in/one-out data-stack opcode on
// constant operands (a below b, i.e. "a op b" in Forth order). It
// reports false for opcodes it does not handle and for operand values
// on which the opcode would raise a runtime error (division by zero) —
// a fold must never erase a fault.
func EvalBinary(op Opcode, a, b Cell) (Cell, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return FloorDiv(a, b), true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return FloorMod(a, b), true
	case OpMin:
		if a < b {
			return a, true
		}
		return b, true
	case OpMax:
		if a > b {
			return a, true
		}
		return b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpLshift:
		return ShiftLeft(a, b), true
	case OpRshift:
		return ShiftRight(a, b), true
	case OpEq:
		return Flag(a == b), true
	case OpNe:
		return Flag(a != b), true
	case OpLt:
		return Flag(a < b), true
	case OpGt:
		return Flag(a > b), true
	case OpLe:
		return Flag(a <= b), true
	case OpGe:
		return Flag(a >= b), true
	case OpULt:
		return Flag(uint64(a) < uint64(b)), true
	}
	return 0, false
}
