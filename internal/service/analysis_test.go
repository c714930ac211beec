package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"stackcache/internal/workloads"
)

// TestAnalysisReported checks that responses carry the abstract
// interpreter's verdict: straight-line/bounded programs are proved,
// data-dependent recursion stays unproven, and the service metrics
// count both.
func TestAnalysisReported(t *testing.T) {
	w, ok := workloads.ByName("fib")
	if !ok {
		t.Fatal("fib workload missing")
	}

	s := mustService(t)
	resp, err := s.Run(context.Background(), Request{Source: addSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Analysis != "proved" {
		t.Errorf("straight-line program: analysis %q, want %q", resp.Analysis, "proved")
	}

	resp, err = s.Run(context.Background(), Request{Source: w.Source})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Analysis != "unproven" {
		t.Errorf("recursive fib: analysis %q, want %q", resp.Analysis, "unproven")
	}

	snap := s.Stats()
	if snap.AnalysisProved != 1 {
		t.Errorf("AnalysisProved = %d, want 1", snap.AnalysisProved)
	}
	if snap.AnalysisUnproven != 1 {
		t.Errorf("AnalysisUnproven = %d, want 1", snap.AnalysisUnproven)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`vmd_analysis_total{outcome="proved"} 1`,
		`vmd_analysis_total{outcome="unproven"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestAnalysisAgreesAcrossEngines runs one proved program on every
// engine via the service (so the engines with a check-elided path take
// it) and checks results match the switch engine's checked reference.
func TestAnalysisAgreesAcrossEngines(t *testing.T) {
	w, ok := workloads.ByName("sieve")
	if !ok {
		t.Fatal("sieve workload missing")
	}
	s := mustService(t)
	var ref *Response
	for _, e := range s.Engines() {
		resp, err := s.Run(context.Background(), Request{Source: w.Source, Engine: e})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if resp.Analysis != "proved" {
			t.Errorf("%s: analysis %q, want proved (sieve is a bounded loop)", e, resp.Analysis)
		}
		if ref == nil {
			ref = resp
			continue
		}
		if resp.Output != ref.Output || resp.StackDepth != ref.StackDepth {
			t.Errorf("%s: output %q depth %d, want %q depth %d",
				e, resp.Output, resp.StackDepth, ref.Output, ref.StackDepth)
		}
	}
}
