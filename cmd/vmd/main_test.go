package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stackcache/internal/service"
)

// TestRunWireBytes pins /run's response bytes: the handler encodes the
// service's own Request and Response types, so a change to their JSON
// tags or field order shows here rather than in clients.
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
	}{{
		body:   `{"source": ": main 1 2 + . ;", "engine": "static"}`,
		status: http.StatusOK,
		want: `{"key":"2094f25ccd4a27e92507bd830075a304794425be51826706dccdd7134d5d85cb","engine":"static",` +
			`"output":"3 ","stack":null,"stack_depth":0,"steps":3,"cache_hit":false,"analysis":"proved",` +
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
			`"output":"\u003c\u003e\u0026","stack":[7],"stack_depth":1,"steps":7,"cache_hit":false,"analysis":"proved",` +
			`"quickened":false,"optimized":true,"steps_accounting":"optimized"}`,
	}, {
		body:   `{"source": ": main 1 ;", "inputs": [{"bogus": 1}]}`,
		status: http.StatusBadRequest,
		want:   `{"class":"bad_request","error":"bad JSON: json: unknown field \"bogus\""}`,
	}}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.handleRun(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(c.body)))
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != c.status || got != c.want {
			t.Errorf("POST /run %s:\ngot  %d %s\nwant %d %s", c.body, rec.Code, got, c.status, c.want)
		}
	}
}

// TestStatsArtifactKeys pins the keys of /stats' "artifact" object and
// their order: the object is artifact.Counters encoded as is, so a
// renamed or reordered counter field shows here rather than in clients.
func TestStatsArtifactKeys(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Quicken: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := &server{svc: svc}
	run := httptest.NewRecorder()
	s.handleRun(run, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(`{"source": ": main 1 2 + . ;"}`)))
	if run.Code != http.StatusOK {
		t.Fatalf("POST /run: %d %s", run.Code, run.Body)
	}
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Artifact json.RawMessage `json:"artifact"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	want := `{"memory_hits":0,"disk_hits":0,"misses":1,"coalesced":0,"corrupt_recomputed":0,` +
		`"persisted":0,"persist_errors":0,"evictions":0,"optimize_refused":0}`
	if got := string(stats.Artifact); got != want {
		t.Errorf("GET /stats artifact:\ngot  %s\nwant %s", got, want)
	}
}
