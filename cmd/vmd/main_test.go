package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"stackcache/internal/service"
)

// TestRunWireBytes pins /run's response bytes: the handler encodes the
// service's own Request and Response types, so a change to their JSON
// tags or field order shows here rather than in clients. A never-seen
// program is served its base build; a case marked compile posts the
// source to /compile first, which gives it the full build.
// longSource runs for about 100,000 source steps, past
// artifact.PromoteSteps, so its second /run is promoted; the optimizer
// folds its first half.
const longSource = ": double dup + ; : main 21 double . 0 begin 1 + dup 20000 = until drop ;"

func TestRunWireBytes(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Quicken: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := &server{svc: svc}

	cases := []struct {
		body, want string
		status     int
		compile    bool
	}{{
		body:   `{"source": ": main 1 2 + . ;", "engine": "static"}`,
		status: http.StatusOK,
		want: `{"key":"2094f25ccd4a27e92507bd830075a304794425be51826706dccdd7134d5d85cb","engine":"static",` +
			`"output":"3 ","stack":null,"stack_depth":0,"steps":7,"cache_hit":false,"analysis":"proved",` +
			`"quickened":false,"optimized":false,"steps_accounting":"source","source_steps":7}`,
	}, {
		body:    `{"source": ": main 1 2 + . ;", "engine": "static"}`,
		status:  http.StatusOK,
		compile: true,
		want: `{"key":"2094f25ccd4a27e92507bd830075a304794425be51826706dccdd7134d5d85cb","engine":"static",` +
			`"output":"3 ","stack":null,"stack_depth":0,"steps":3,"cache_hit":true,"analysis":"proved",` +
			`"quickened":false,"optimized":true,"steps_accounting":"optimized"}`,
	}, {
		body:   `{"source": ": main / . ;", "engine": "static", "inputs": [{"args": [6, 2]}, {"args": [84, 2]}, {"args": [1, 0]}]}`,
		status: http.StatusOK,
		want: `{"key":"e2199d87364741187faaa48891cf19d74b88dd9f53a9ce92795269de6c279a75","engine":"static",` +
			`"output":"","stack":null,"stack_depth":0,"steps":12,"cache_hit":false,"analysis":"unproven",` +
			`"quickened":false,"optimized":false,"steps_accounting":"source","source_steps":12,"results":[` +
			`{"output":"3 ","stack":null,"stack_depth":0,"steps":5,"class":"ok"},` +
			`{"output":"42 ","stack":null,"stack_depth":0,"steps":5,"class":"ok"},` +
			`{"output":"","stack":[1,0],"stack_depth":2,"steps":2,"class":"runtime",` +
			`"error":"runtime: vm runtime error at pc 49 (/): division by zero"}]}`,
	}, {
		body:   `{"source": ": main 60 emit 62 emit 38 emit ;", "args": [7]}`,
		status: http.StatusOK,
		want: `{"key":"759c0b811897b1316aecb7181d6969cc2e10562dd70ebaf5363f4a2882c788f8","engine":"switch",` +
			`"output":"\u003c\u003e\u0026","stack":[7],"stack_depth":1,"steps":9,"cache_hit":false,"analysis":"proved",` +
			`"quickened":false,"optimized":false,"steps_accounting":"source","source_steps":9}`,
	}, {
		body:   `{"source": ": main 1 ;", "inputs": [{"bogus": 1}]}`,
		status: http.StatusBadRequest,
		want:   `{"class":"bad_request","error":"bad JSON: json: unknown field \"bogus\""}`,
	}, {
		body:   `{"source": ": main 1 . ;"}{"source": ": main 2 . ;"}`,
		status: http.StatusBadRequest,
		want:   `{"class":"bad_request","error":"bad JSON: invalid character '{' after top-level value"}`,
	}, {
		body:   `{"source": ": main 1 . ;"} junk`,
		status: http.StatusBadRequest,
		want:   `{"class":"bad_request","error":"bad JSON: invalid character 'j' after top-level value"}`,
	}}
	for _, c := range cases {
		if c.compile {
			rec := httptest.NewRecorder()
			s.handleCompile(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /compile %s: %d %s", c.body, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		s.handleRun(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(c.body)))
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != c.status || got != c.want {
			t.Errorf("POST /run %s:\ngot  %d %s\nwant %d %s", c.body, rec.Code, got, c.status, c.want)
		}
	}
}

// TestStatsMetricsGolden pins the bytes of /stats and /metrics after a
// fixed script against testdata/stats.golden and metrics.golden. The
// script covers singletons on three engines, a cache hit, a program
// compiled before its run (quickened and optimized), a batch with one
// failing input, a limit error, a compile error, an unknown engine, a
// program run past artifact.PromoteSteps and then promoted, and a
// /compile that promotes a resident base unit, so a counter that
// moves, drops out or is counted twice shows here. Only what depends
// on timing or on the rest of the process is masked: latency bucket
// counts (their +Inf totals stay), the latency sums and the compiled
// engine's process-wide counters.
func TestStatsMetricsGolden(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Quicken: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := &server{svc: svc}
	script := []struct {
		path, body string
		status     int
	}{
		{"/run", `{"source": ": main 1 2 + . ;"}`, http.StatusOK},
		{"/run", `{"source": ": main 1 2 + . ;", "engine": "static"}`, http.StatusOK},
		{"/run", `{"source": ": main + . ;", "engine": "compiled", "args": [30, 12]}`, http.StatusOK},
		{"/compile", `{"source": "variable x : main x @ x @ + . ;"}`, http.StatusOK},
		{"/run", `{"source": "variable x : main x @ x @ + . ;", "engine": "switch"}`, http.StatusOK},
		{"/run", `{"source": ": main / . ;", "engine": "static", "inputs": [{"args": [6, 2]}, {"args": [1, 0]}]}`, http.StatusOK},
		{"/run", `{"source": ": main 0 begin 1 + dup 0 < until drop ;", "max_steps": 1000}`, http.StatusUnprocessableEntity},
		{"/run", `{"source": ": main nosuchword ;"}`, http.StatusBadRequest},
		{"/run", `{"source": ": main 1 ;", "engine": "nosuchengine"}`, http.StatusBadRequest},
		{"/run", `{"source": "` + longSource + `"}`, http.StatusOK},
		{"/run", `{"source": "` + longSource + `"}`, http.StatusOK},
		{"/compile", `{"source": ": main + . ;"}`, http.StatusOK},
	}
	for _, step := range script {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, step.path, strings.NewReader(step.body))
		if step.path == "/compile" {
			s.handleCompile(rec, req)
		} else {
			s.handleRun(rec, req)
		}
		if rec.Code != step.status {
			t.Fatalf("POST %s %s: %d %s, want %d", step.path, step.body, rec.Code, rec.Body, step.status)
		}
	}

	stats := httptest.NewRecorder()
	s.handleStats(stats, httptest.NewRequest(http.MethodGet, "/stats", nil))
	metrics := httptest.NewRecorder()
	s.handleMetrics(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, c := range []struct {
		name string
		got  string
		mask []*regexp.Regexp
	}{
		{"stats.golden", stats.Body.String(), []*regexp.Regexp{
			regexp.MustCompile(`"latency_buckets":\[[0-9,]*\]`),
			regexp.MustCompile(`"latency_sum_ns":[0-9]+`),
			regexp.MustCompile(`"compiled_(programs|proved)":[0-9]+`),
		}},
		{"metrics.golden", metrics.Body.String(), []*regexp.Regexp{
			regexp.MustCompile(`(?m)^vmd_exec_latency_seconds_bucket\{engine="[a-z0-9]+",le="[0-9.e+-]+"\} [0-9]+$`),
			regexp.MustCompile(`(?m)^vmd_exec_latency_seconds_sum\{engine="[a-z0-9]+"\} [0-9.e+-]+$`),
			regexp.MustCompile(`(?m)^vmd_compiled_(programs|proved)_total [0-9]+$`),
		}},
	} {
		got := c.got
		for _, re := range c.mask {
			got = re.ReplaceAllStringFunc(got, maskDigits)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from testdata/%s:\ngot\n%s\nwant\n%s", c.name, c.name, got, want)
		}
	}
}

var digits = regexp.MustCompile(`[0-9][0-9.e+-]*`)

// maskDigits replaces each number in a matched sample's value,
// everything after its last ':', '[' or ' ', with "_".
func maskDigits(m string) string {
	i := strings.LastIndexAny(m, ":[ ") + 1
	return m[:i] + digits.ReplaceAllString(m[i:], "_")
}
