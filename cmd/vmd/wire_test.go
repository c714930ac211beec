package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stackcache/internal/service"
	"stackcache/internal/vm"
)

// runResponse and inputResult are the /run success body as
// encoding/json writes it, the reference appendRunResponse must match
// byte for byte: the service's response as is, plus its batch results.
type runResponse struct {
	*service.Response
	Results []inputResult `json:"results,omitempty"` // batch requests only, in input order
}

type inputResult struct {
	Output     string    `json:"output"`
	Stack      []vm.Cell `json:"stack"`
	StackDepth int       `json:"stack_depth"`
	Steps      int64     `json:"steps"`
	Class      string    `json:"class"`
	Error      string    `json:"error,omitempty"`
}

// referenceBody is what json.Encoder writes for resp's runResponse.
func referenceBody(t testing.TB, resp *service.Response) []byte {
	out := runResponse{Response: resp}
	for _, ir := range resp.Results {
		res := inputResult{
			Output:     ir.Output,
			Stack:      ir.Stack,
			StackDepth: ir.StackDepth,
			Steps:      ir.Steps,
			Class:      ir.Class().String(),
		}
		if ir.Err != nil {
			res.Error = ir.Err.Error()
		}
		out.Results = append(out.Results, res)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// referenceDecode decodes body as encoding/json alone would: the first
// value, refusing unknown fields, with more than whitespace after it an
// error in json.Unmarshal's words.
func referenceDecode(body []byte) (service.Request, error) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if strings.TrimLeft(string(body[dec.InputOffset():]), " \t\r\n") != "" {
		return req, json.Unmarshal(body, new(json.RawMessage))
	}
	return req, nil
}

// wireSeedBodies are FuzzRunWire's seed bodies: every body
// TestRunWireBytes, TestStatsMetricsGolden and CI's service smoke
// script send, then edge bodies, most of which only encoding/json
// decodes.
var wireSeedBodies = []string{
	// TestRunWireBytes.
	`{"source": ": main 1 2 + . ;", "engine": "static"}`,
	`{"source": ": main / . ;", "engine": "static", "inputs": [{"args": [6, 2]}, {"args": [84, 2]}, {"args": [1, 0]}]}`,
	`{"source": ": main 60 emit 62 emit 38 emit ;", "args": [7]}`,
	`{"source": ": main 1 ;", "inputs": [{"bogus": 1}]}`,
	`{"source": ": main 1 . ;"}{"source": ": main 2 . ;"}`,
	`{"source": ": main 1 . ;"} junk`,
	// TestStatsMetricsGolden.
	`{"source": ": main 1 2 + . ;"}`,
	`{"source": ": main + . ;", "engine": "compiled", "args": [30, 12]}`,
	`{"source": "variable x : main x @ x @ + . ;"}`,
	`{"source": "variable x : main x @ x @ + . ;", "engine": "switch"}`,
	`{"source": ": main / . ;", "engine": "static", "inputs": [{"args": [6, 2]}, {"args": [1, 0]}]}`,
	`{"source": ": main 0 begin 1 + dup 0 < until drop ;", "max_steps": 1000}`,
	`{"source": ": main nosuchword ;"}`,
	`{"source": ": main 1 ;", "engine": "nosuchengine"}`,
	`{"source": "` + longSource + `"}`,
	`{"source": ": main + . ;"}`,
	// CI's service smoke script.
	`{"source": ": main 1 2 + . ;", "engine": "dynamic"}`,
	`{"source": ": main + . ;", "engine": "gendyn", "args": [30, 12]}`,
	`{"source": ": main + . ;", "engine": "switch", "args": [30, 12]}`,
	`{"source": ": main + . ;", "engine": "compiled", "inputs": [{"args": [6, 3]}, {"args": [40, 2]}]}`,
	`{"source": ": main 0 begin 1 + dup 0 < until ;", "max_steps": 1000}`,
	`{"source": ": double dup + ; : main 21 double . ;"}`,
	`{"source": ": double dup + ; : main 21 double . ;", "inputs": [{}, {}, {}, {}]}`,
	`{"source": ": main / . ;", "inputs": [{"args": [6, 2]}, {"args": [1, 0]}]}`,
	`{"source": ": main 1 . ;"} {"source": ": main 2 . ;"}`,
	// Edge bodies.
	``,
	`   `,
	`{}`,
	`[]`,
	`null`,
	`{"source": ": main 1 . ;"}` + " \t\r\n",
	`{"source": ": main 1 . ;"`,
	`{"source": ": main 1 . ;",}`,
	`{"source": ": main 1 . ;", "mem": "AQID"}`,
	`{"source": ": main 1 . ;", "inputs": [{"args": [1], "mem": "AQID"}]}`,
	`{"source": null, "args": null, "inputs": null}`,
	`{"Source": ": main 1 . ;", "ARGS": [1]}`,
	`{"source": "a", "source": ": main 1 . ;"}`,
	`{"source": ": main + . ;", "inputs": [{"args": [1], "args": [2]}]}`,
	`{"source": ": main . ;", "args": [1.5]}`,
	`{"source": ": main . ;", "args": [1e2], "max_steps": 10E1}`,
	`{"source": ": main . ;", "args": [-0, 01]}`,
	`{"source": ": main . ;", "args": [-0, 0, -1]}`,
	`{"source": ": main . ;", "args": [9223372036854775807, -9223372036854775808]}`,
	`{"source": ": main . ;", "args": [9223372036854775808]}`,
	`{"source": ": main . ;", "args": [-9223372036854775809, 99999999999999999999]}`,
	`{"source": ": main 1 . ;", "max_steps": -1}`,
	`{"source": ": main 60 emit ; \u003c\u003e\u0026 \"\\\/\b\f\n\r\t \u00e9\u2028\uffff"}`,
	`{"source": "\ud83d\ude00 : main ;"}`,
	`{"source": "\ud800 : main ;"}`,
	`{"source": "\u12 : main ;"}`,
	`{"source": "\x : main ;"}`,
	"{\"source\": \"\xff\xfe : main ;\"}",
	"{\"source\": \"tab\there\"}",
	"{\"source\": \"h\xc3\xa9 \xe2\x80\xa8 : main ;\"}",
	`{"source": ": main ;", "inputs": []}`,
	`{"source": ": main ;", "inputs": [{}, {"args": []}]}`,
	`{"source": ": main ;", "args": [], "inputs": [{"args": [1,2 ,3]} , {"args":[ ]}]}`,
	`{"so\u0075rce": ": main ;"}`,
	`{"source": ": main ;", "engine": 7}`,
	`{"source": ": main ;", "args": {}}`,
	`{"source": ": main ;", "args": [true]}`,
	`{"source": ": main ;", "args": ["1"]}`,
	`{"source": ": main ;", "args": [1 2]}`,
	`{"source": ": main ;", "max_steps": -}`,
	`{"source": ": main ;"}]`,
}

// wireSeedTexts are FuzzRunWire's seed response texts: an output, a
// key and an error message in one string.
var wireSeedTexts = []string{
	"",
	"3 ",
	"<>&",
	"\u2028\u2029",
	"\x00\x01\x1f\x7f\b\f\n\r\t\"\\/",
	"\xff\xfe\xc3 \xe2\x80",
	"h\u00e9llo \u2713 \U0001F600",
	"runtime: vm runtime error at pc 49 (/): division by zero",
}

// FuzzRunWire checks the wire codec against encoding/json on request
// bodies and on responses. For every body, decode gives what
// encoding/json gives: the same request, or an error with the same
// text. Whenever the fast path accepts a body, encoding/json accepts it
// too, into a reflect.DeepEqual request, nil and empty slices told
// apart, and the two agree on where the object ends. For a response
// built from text, n and flags, appendRunResponse writes what
// json.Encoder writes for its runResponse.
func FuzzRunWire(f *testing.F) {
	for i, body := range wireSeedBodies {
		f.Add([]byte(body), wireSeedTexts[i%len(wireSeedTexts)], int64(i*37-500), uint16(i*2731))
	}
	f.Add([]byte(`{}`), "", int64(math.MinInt64), uint16(math.MaxUint16))
	f.Fuzz(func(t *testing.T, body []byte, text string, n int64, flags uint16) {
		var c wire
		var fast service.Request
		end, ok := c.parse(body, &fast)
		want, wantErr := referenceDecode(body)
		if ok {
			var ref service.Request
			off, err := decodeJSON(bytes.NewReader(body), &ref)
			if err != nil {
				t.Fatalf("fast path accepts %q, encoding/json refuses it: %v", body, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("body %q: fast path decodes %#v, encoding/json %#v", body, fast, ref)
			}
			if end != int(off) {
				t.Fatalf("body %q: fast path ends the object at %d, encoding/json at %d", body, end, off)
			}
		}
		var got service.Request
		err := c.decode(body, &got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q: decode error %v, encoding/json %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decode gives %#v, encoding/json %#v", body, got, want)
		}

		resp := fuzzResponse(text, n, flags)
		if got, want := appendRunResponse(nil, resp), referenceBody(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("response %#v:\ngot  %s\nwant %s", resp, got, want)
		}
	})
}

// fuzzResponse builds a /run response from fuzzed parts: text as key,
// output and error message; n as counts and stack cells; and flags
// choosing the booleans, whether source_steps is set, each stack's
// form and whether there are batch results.
func fuzzResponse(text string, n int64, flags uint16) *service.Response {
	stack := func(form uint16) []vm.Cell {
		switch form % 4 {
		case 0:
			return nil
		case 1:
			return []vm.Cell{}
		case 2:
			return []vm.Cell{n}
		}
		return []vm.Cell{n, -n, 0, math.MinInt64}
	}
	resp := &service.Response{
		Key:             text,
		Engine:          "switch",
		Output:          text,
		Stack:           stack(flags),
		StackDepth:      int(n),
		Steps:           n,
		CacheHit:        flags&4 != 0,
		Analysis:        "proved",
		Quickened:       flags&8 != 0,
		Optimized:       flags&16 != 0,
		StepsAccounting: "source",
	}
	if flags&32 != 0 {
		resp.SourceSteps = n
	}
	if flags&64 != 0 {
		class := service.ErrorClass(int(flags>>9) % service.NumErrorClasses)
		resp.Results = []service.InputResult{
			{Output: text, Stack: stack(flags >> 7), StackDepth: int(-n), Steps: n},
			{Stack: stack(flags >> 8), Steps: -n, Err: &service.Error{Class: class, Err: errors.New(text)}},
		}
	}
	return resp
}

// newRequestBody builds a /run body the way vmbench's newRequest does:
// json.Marshal of the source and either the singleton args or the batch
// inputs, each left out when empty.
func newRequestBody(t testing.TB, src string, args []int64, batch [][]int64) []byte {
	type input struct {
		Args []int64 `json:"args"`
	}
	body := struct {
		Source string  `json:"source"`
		Args   []int64 `json:"args,omitempty"`
		Inputs []input `json:"inputs,omitempty"`
	}{Source: src, Args: args}
	for _, a := range batch {
		body.Inputs = append(body.Inputs, input{a})
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunWireFastPathCoverage checks that every body built the way
// vmbench builds its tiny and cold requests takes the fast path, and
// decodes as encoding/json decodes it. The sources draw on the bytes
// json.Marshal escapes (<, >, &, quotes, backslashes, control bytes,
// U+2028) as well as Forth text and other UTF-8.
func TestRunWireFastPathCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{": main", " ;", " dup", " + . ", "\n", " < ", " > ", " <> ", " & ", " 0< ",
		`." hi"`, `\ comment`, "\t", "\r", "\x01", "\u00e9", "\u2028", "\u2713", "42", " -7 "}
	var c wire
	for i := 0; i < 2000; i++ {
		var src strings.Builder
		for k := rng.Intn(40); k >= 0; k-- {
			src.WriteString(pieces[rng.Intn(len(pieces))])
		}
		cells := func() []int64 {
			out := make([]int64, rng.Intn(6))
			for a := range out {
				switch rng.Intn(4) {
				case 0:
					out[a] = rng.Int63() - rng.Int63()
				case 1:
					out[a] = math.MinInt64 + rng.Int63n(2)
				default:
					out[a] = rng.Int63n(2001) - 1000
				}
			}
			return out
		}
		var args []int64
		var batch [][]int64
		if i%5 == 0 {
			batch = make([][]int64, 1+rng.Intn(64))
			for k := range batch {
				batch[k] = cells()
			}
		} else {
			args = cells()
		}
		body := newRequestBody(t, src.String(), args, batch)
		var got, want service.Request
		end, ok := c.parse(body, &got)
		if !ok || end != len(body) {
			t.Fatalf("vmbench-shaped body %q misses the fast path (ok %t, end %d of %d)", body, ok, end, len(body))
		}
		if _, err := decodeJSON(bytes.NewReader(body), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: fast path decodes %#v, encoding/json %#v (%v)", body, got, want, err)
		}
	}
}

// tinyBatch is a batch body shaped like vmbench's tiny batches: one
// small program and n inputs of two args each.
func tinyBatch(t testing.TB, n int) []byte {
	batch := make([][]int64, n)
	for k := range batch {
		batch[k] = []int64{int64(k*37 - 500), int64(-k)}
	}
	return newRequestBody(t, "\\ tiny program 3\n: w0 dup 0< if negate then ;\n: main w0 swap w0 + . ;\n", nil, batch)
}

// TestRunWireAllocs guards the codec's allocations: decoding a tiny
// batch body costs the source string, the inputs and one array for all
// their args, however many inputs there are, and encoding its response
// into a reused buffer allocates nothing.
func TestRunWireAllocs(t *testing.T) {
	var c wire
	decodeAllocs := func(body []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			var req service.Request
			if err := c.decode(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	const maxDecodeAllocs = 4
	base := decodeAllocs(tinyBatch(t, 16))
	if base > maxDecodeAllocs {
		t.Errorf("decoding a 16-input batch allocates %v times, want at most %d", base, maxDecodeAllocs)
	}
	for _, n := range []int{1, 64} {
		if got := decodeAllocs(tinyBatch(t, n)); got != base {
			t.Errorf("decoding a %d-input batch allocates %v times, a 16-input one %v", n, got, base)
		}
	}

	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var req service.Request
	if err := c.decode(tinyBatch(t, 16), &req); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := appendRunResponse(nil, resp), referenceBody(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("tiny batch response:\ngot  %s\nwant %s", got, want)
	}
	buf := appendRunResponse(nil, resp)
	if n := testing.AllocsPerRun(100, func() { buf = appendRunResponse(buf[:0], resp) }); n != 0 {
		t.Errorf("encoding a 16-input batch response into a reused buffer allocates %v times, want 0", n)
	}
}

// TestRunWireRefusals checks bodies /run and /compile both refuse
// before the service sees them: more than whitespace after the object,
// and bodies past maxBodyBytes, which get the error encoding/json
// reports reading them under the limit, so a syntax error within the
// limit comes before the limit's own.
func TestRunWireRefusals(t *testing.T) {
	s := &server{}
	pad := strings.Repeat("a", maxBodyBytes)
	for _, c := range []struct{ body, want string }{
		{`{"source": ": main 1 . ;"} junk`, `bad JSON: invalid character 'j' after top-level value`},
		{`{"source": ": main 1 . ;", "mem": ""} 0`, `bad JSON: invalid character '0' after top-level value`},
		{`{"source": "` + pad + `"}`, `bad JSON: http: request body too large`},
		{`{"source": 1` + pad, `bad JSON: invalid character 'a' after object key:value pair`},
	} {
		want := `{"class":"bad_request","error":"` + c.want + `"}` + "\n"
		for path, handle := range map[string]http.HandlerFunc{"/run": s.handleRun, "/compile": s.handleCompile} {
			rec := httptest.NewRecorder()
			handle(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(c.body)))
			if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
				t.Errorf("POST %s with %.40q (%d bytes): %d %s, want 400 %s", path, c.body, len(c.body), rec.Code, rec.Body, want)
			}
		}
	}
}

// TestRunWireConcurrent posts canonical, fallback and refused bodies
// from several goroutines at once: each response must equal the one
// the same body got alone, so no request sees another's pooled buffers.
func TestRunWireConcurrent(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := &server{svc: svc}
	bodies := []string{
		string(tinyBatch(t, 16)),
		`{"source": ": main 60 emit 62 emit 38 emit ;", "args": [7]}`,
		`{"source": ": main + . ;", "Args": [30, 12]}`,
		`{"source": ": main / . ;", "inputs": [{"args": [6, 2]}, {"args": [1, 0]}]}`,
		`{"source": ": main 1 . ;"} junk`,
	}
	post := func(body string) string {
		rec := httptest.NewRecorder()
		s.handleRun(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		// The cache outcome depends on which request came first.
		return fmt.Sprint(rec.Code, strings.Replace(rec.Body.String(), `"cache_hit":false`, `"cache_hit":true`, 1))
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = post(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(bodies)
				if got := post(bodies[i]); got != want[i] {
					t.Errorf("POST /run %.40q concurrently:\ngot  %s\nwant %s", bodies[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// discardResponse is an http.ResponseWriter that keeps only the status
// and the header, so BenchmarkHandleRun times the handler alone.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// BenchmarkHandleRun times vmd's /run handler in process (decode,
// service.Run and encode) on a tiny singleton and a 16-input tiny
// batch, both cache hits.
func BenchmarkHandleRun(b *testing.B) {
	svc, err := service.New(service.Config{Workers: 1, Quicken: true, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	s := &server{svc: svc}
	single := tinyBatch(b, 1)
	var probe service.Request
	if err := json.Unmarshal(single, &probe); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"single", newRequestBody(b, probe.Source, []int64{3, -4}, nil)},
		{"batch16", tinyBatch(b, 16)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodPost, "/run", nil)
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Body = io.NopCloser(bytes.NewReader(c.body))
				clear(w.h)
				s.handleRun(w, r)
				if w.code != http.StatusOK {
					b.Fatalf("POST /run %s: status %d", c.body, w.code)
				}
			}
		})
	}
}
