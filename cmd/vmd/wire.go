package main

// The /run wire codec. A request body is read whole, then parsed in one
// pass when it has the canonical shape (see parse); any other body goes
// through encoding/json, which alone decides what it means and what its
// error says. A /run success body is appended to a buffer field by
// field, byte for byte what json.Encoder writes for the same response.

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"stackcache/internal/service"
	"stackcache/internal/vm"
)

// maxPooled bounds the buffers a wire keeps between requests, so one
// large body does not pin its copy in the pool.
const maxPooled = 64 << 10

// wire is one request's codec state: the body and then the response in
// buf, and the parser's scratch. Handlers take one from wires and
// release it when they are done with buf.
type wire struct {
	buf   []byte
	b     []byte    // the body being parsed
	i     int       // parse offset in b
	str   []byte    // a string with escapes, while it is built
	cells []vm.Cell // every args integer of the body, in order
	spans []span    // each batch input's args in cells
}

// span is one args array's extent in wire.cells; set is false when the
// key is absent, which decodes to a nil slice.
type span struct {
	lo, hi int
	set    bool
}

var wires = sync.Pool{New: func() any { return new(wire) }}

// release returns c to wires, unless a large body grew one of its
// buffers past maxPooled bytes (a cell takes 8, a span 24).
func (c *wire) release() {
	if cap(c.buf) > maxPooled || cap(c.str) > maxPooled ||
		8*cap(c.cells) > maxPooled || 24*cap(c.spans) > maxPooled {
		return
	}
	c.b = nil
	wires.Put(c)
}

// readBody appends everything r yields to dst. On an error it returns
// what was read before it.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		dst = slices.Grow(dst, 512)
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeBody decodes the request body r yields into req; c.buf holds
// the body afterwards. A body must be one JSON object with nothing but
// whitespace after it.
func (c *wire) decodeBody(r io.Reader, req *service.Request) error {
	body, err := readBody(c.buf[:0], r)
	c.buf = body
	if err != nil {
		// encoding/json meets the body as it did when it read the body
		// itself: the bytes read, then the error, so an object that is
		// bad before the error is reported as such.
		if _, jerr := decodeJSON(io.MultiReader(bytes.NewReader(body), errReader{err}), req); jerr != nil {
			return jerr
		}
		return err
	}
	return c.decode(body, req)
}

// decode decodes body into req: a canonical body directly, any other
// through encoding/json.
func (c *wire) decode(body []byte, req *service.Request) error {
	end, ok := c.parse(body, req)
	if !ok {
		off, err := decodeJSON(bytes.NewReader(body), req)
		if err != nil {
			return err
		}
		end = int(off)
	}
	if !onlySpace(body[end:]) {
		// encoding/json's own words for it.
		return json.Unmarshal(body, new(json.RawMessage))
	}
	return nil
}

// decodeJSON decodes the first JSON value r yields into req, refusing
// unknown fields, and returns the offset just past it. It decodes into
// a copy, so that only a body that takes this path puts a request on
// the heap.
func decodeJSON(r io.Reader, req *service.Request) (int64, error) {
	var v service.Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	*req = v
	return dec.InputOffset(), err
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func onlySpace(b []byte) bool {
	for _, ch := range b {
		if !isSpace(ch) {
			return false
		}
	}
	return true
}

// Request keys, as bits of the set parse has seen.
const (
	keySource = 1 << iota
	keyEngine
	keyMaxSteps
	keyArgs
	keyInputs
)

// parse decodes body into req when it starts with a canonical request
// object, and returns the offset just past the object. A canonical
// object has each of the keys source, engine, max_steps, args and
// inputs at most once, spelled exactly so; strings free of raw control
// bytes, invalid UTF-8 and surrogate escapes; integers without a
// fraction or exponent that fit an int64; and inputs each of the form
// {} or {"args": [...]}. For any other body parse returns false and
// leaves req alone. The source, and the engine when given, are one
// allocation each, and all the args of a request share one array.
func (c *wire) parse(body []byte, req *service.Request) (int, bool) {
	c.b, c.i = body, 0
	c.cells, c.spans = c.cells[:0], c.spans[:0]
	var r service.Request
	var args span
	var seen int
	if !c.eat('{') {
		return 0, false
	}
	if !c.eat('}') {
		for {
			key, ok := c.key()
			if !ok {
				return 0, false
			}
			var bit int
			switch string(key) {
			case "source":
				bit = keySource
				r.Source, ok = c.string()
			case "engine":
				bit = keyEngine
				r.Engine, ok = c.string()
			case "max_steps":
				bit = keyMaxSteps
				r.MaxSteps, ok = c.int()
			case "args":
				bit = keyArgs
				args, ok = c.cellArray()
			case "inputs":
				bit = keyInputs
				ok = c.inputs()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return 0, false
			}
			seen |= bit
			if c.eat(',') {
				continue
			}
			if c.eat('}') {
				break
			}
			return 0, false
		}
	}
	cells := make([]vm.Cell, len(c.cells))
	copy(cells, c.cells)
	if args.set {
		r.Args = cells[args.lo:args.hi:args.hi]
	}
	if seen&keyInputs != 0 {
		r.Inputs = make([]service.Input, len(c.spans))
		for i, sp := range c.spans {
			if sp.set {
				r.Inputs[i].Args = cells[sp.lo:sp.hi:sp.hi]
			}
		}
	}
	*req = r
	return c.i, true
}

// eat skips whitespace, then consumes ch if it is next.
func (c *wire) eat(ch byte) bool {
	for c.i < len(c.b) && isSpace(c.b[c.i]) {
		c.i++
	}
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// key consumes an object key and its colon, returning the key's bytes.
// A key with an escape is not canonical.
func (c *wire) key() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	start := c.i
	for c.i < len(c.b) {
		switch ch := c.b[c.i]; {
		case ch == '"':
			key := c.b[start:c.i]
			c.i++
			return key, c.eat(':')
		case ch == '\\' || ch < 0x20:
			return nil, false
		}
		c.i++
	}
	return nil, false
}

// string consumes a string value. A string without escapes is
// converted straight from the body; one with escapes is built in c.str
// from the runs of plain bytes between them and what each escape
// stands for.
func (c *wire) string() (string, bool) {
	if !c.eat('"') {
		return "", false
	}
	c.str = c.str[:0]
	run := c.i // the start of the plain bytes not yet in c.str
	for c.i < len(c.b) {
		ch := c.b[c.i]
		switch {
		case ch == '"':
			plain := c.b[run:c.i]
			c.i++
			if len(c.str) == 0 { // no escapes: every escape adds a byte
				return string(plain), true
			}
			c.str = append(c.str, plain...)
			return string(c.str), true
		case ch == '\\':
			c.str = append(c.str, c.b[run:c.i]...)
			if !c.escape() {
				return "", false
			}
			run = c.i
		case ch < 0x20:
			return "", false
		case ch < utf8.RuneSelf:
			c.i++
		default:
			r, size := utf8.DecodeRune(c.b[c.i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			c.i += size
		}
	}
	return "", false
}

// escape consumes one backslash escape and appends what it stands for
// to c.str.
func (c *wire) escape() bool {
	if c.i+1 >= len(c.b) {
		return false
	}
	esc := c.b[c.i+1]
	c.i += 2
	switch esc {
	case '"', '\\', '/':
		c.str = append(c.str, esc)
	case 'b':
		c.str = append(c.str, '\b')
	case 'f':
		c.str = append(c.str, '\f')
	case 'n':
		c.str = append(c.str, '\n')
	case 'r':
		c.str = append(c.str, '\r')
	case 't':
		c.str = append(c.str, '\t')
	case 'u':
		r, ok := c.hex4()
		if !ok || utf8.RuneLen(r) < 0 { // a surrogate half
			return false
		}
		c.str = utf8.AppendRune(c.str, r)
	default:
		return false
	}
	return true
}

// hex4 consumes the four hex digits of a \u escape.
func (c *wire) hex4() (rune, bool) {
	if c.i+4 > len(c.b) {
		return 0, false
	}
	var r rune
	for _, ch := range c.b[c.i : c.i+4] {
		switch {
		case '0' <= ch && ch <= '9':
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		case 'A' <= ch && ch <= 'F':
			ch -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(ch)
	}
	c.i += 4
	return r, true
}

// int consumes an integer: an optional minus and at most 19 digits
// without a leading zero, not followed by a fraction or an exponent,
// in int64's range.
func (c *wire) int() (int64, bool) {
	for c.i < len(c.b) && isSpace(c.b[c.i]) {
		c.i++
	}
	neg := c.i < len(c.b) && c.b[c.i] == '-'
	if neg {
		c.i++
	}
	start := c.i
	var n uint64
	for c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' {
		n = n*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	digits := c.i - start
	if digits == 0 || digits > 19 || (digits > 1 && c.b[start] == '0') {
		return 0, false
	}
	if c.i < len(c.b) && (c.b[c.i] == '.' || c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		return 0, false
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// cellArray consumes an array of integers into c.cells.
func (c *wire) cellArray() (span, bool) {
	if !c.eat('[') {
		return span{}, false
	}
	lo := len(c.cells)
	if !c.eat(']') {
		for {
			n, ok := c.int()
			if !ok {
				return span{}, false
			}
			c.cells = append(c.cells, n)
			if c.eat(',') {
				continue
			}
			if c.eat(']') {
				break
			}
			return span{}, false
		}
	}
	return span{lo: lo, hi: len(c.cells), set: true}, true
}

// inputs consumes the inputs array into c.spans.
func (c *wire) inputs() bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		return true
	}
	for {
		if !c.eat('{') {
			return false
		}
		var sp span
		if !c.eat('}') {
			key, ok := c.key()
			if !ok || string(key) != "args" {
				return false
			}
			if sp, ok = c.cellArray(); !ok || !c.eat('}') {
				return false
			}
		}
		c.spans = append(c.spans, sp)
		if c.eat(',') {
			continue
		}
		return c.eat(']')
	}
}

// appendRunResponse appends the /run success body for resp to dst:
// resp's fields, then its batch results when it has any, then a
// newline, each byte as json.Encoder writes it.
func appendRunResponse(dst []byte, resp *service.Response) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendString(dst, resp.Key)
	dst = append(dst, `,"engine":`...)
	dst = appendString(dst, resp.Engine)
	dst = append(dst, `,"output":`...)
	dst = appendString(dst, resp.Output)
	dst = append(dst, `,"stack":`...)
	dst = appendCells(dst, resp.Stack)
	dst = append(dst, `,"stack_depth":`...)
	dst = strconv.AppendInt(dst, int64(resp.StackDepth), 10)
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, resp.Steps, 10)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, resp.CacheHit)
	dst = append(dst, `,"analysis":`...)
	dst = appendString(dst, resp.Analysis)
	dst = append(dst, `,"quickened":`...)
	dst = strconv.AppendBool(dst, resp.Quickened)
	dst = append(dst, `,"optimized":`...)
	dst = strconv.AppendBool(dst, resp.Optimized)
	dst = append(dst, `,"steps_accounting":`...)
	dst = appendString(dst, resp.StepsAccounting)
	if resp.SourceSteps != 0 {
		dst = append(dst, `,"source_steps":`...)
		dst = strconv.AppendInt(dst, resp.SourceSteps, 10)
	}
	if len(resp.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInputResult(dst, &resp.Results[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendInputResult appends one batch input's outcome: "class" is "ok"
// on success, and a failing input's class and error ride here while
// the rest of the batch still executes.
func appendInputResult(dst []byte, ir *service.InputResult) []byte {
	dst = append(dst, `{"output":`...)
	dst = appendString(dst, ir.Output)
	dst = append(dst, `,"stack":`...)
	dst = appendCells(dst, ir.Stack)
	dst = append(dst, `,"stack_depth":`...)
	dst = strconv.AppendInt(dst, int64(ir.StackDepth), 10)
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, ir.Steps, 10)
	dst = append(dst, `,"class":`...)
	dst = appendString(dst, ir.Class().String())
	if ir.Err != nil {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, ir.Err.Error())
	}
	return append(dst, '}')
}

// appendCells appends a stack: null when nil.
func appendCells(dst []byte, cells []vm.Cell) []byte {
	if cells == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u003c, \u003e and \u0026; \b, \f, \n, \r
// and \t by name and other control bytes as \u00XX; each byte of
// invalid UTF-8 as \ufffd; and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
