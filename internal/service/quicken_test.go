package service

import (
	"context"
	"strings"
	"testing"

	"stackcache/internal/workloads"
)

// quickenableSource compiles to lit @ lit @ + . — the quickener plants
// q-lit-fetch at pc 0 and q-lit-fetch-add at pc 2.
const quickenableSource = "variable x : main x @ x @ + . ;"

func TestQuickenPipeline(t *testing.T) {
	s := mustService(t, func(c *Config) { c.Quicken = true })
	compile(t, s, quickenableSource)
	compile(t, s, addSource)

	resp, err := s.Run(context.Background(), Request{Source: quickenableSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Quickened {
		t.Error("response not marked quickened")
	}
	if resp.Output != "0 " {
		t.Errorf("output %q, want %q", resp.Output, "0 ")
	}

	// A cache hit serves the same (quickened) entry.
	resp, err = s.Run(context.Background(), Request{Source: quickenableSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || !resp.Quickened {
		t.Errorf("second run: cacheHit %v quickened %v, want true/true", resp.CacheHit, resp.Quickened)
	}

	// A program with no fusible sequence stays unquickened even with
	// quickening on (addSource is lit lit + . — "lit +" is a front-end
	// Shrink rule, not a quickening rule).
	resp, err = s.Run(context.Background(), Request{Source: addSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Quickened {
		t.Error("unfusible program marked quickened")
	}

	snap := s.Stats()
	if snap.QuickenedPrograms != 1 {
		t.Errorf("quickened programs %d, want 1", snap.QuickenedPrograms)
	}
	if snap.QuickenedOps != 2 {
		t.Errorf("quickened ops %d, want 2 (q-lit-fetch + q-lit-fetch-add)", snap.QuickenedOps)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vmd_quickened_programs_total 1", "vmd_quickened_ops_total 2"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestQuickenDisabledByDefault(t *testing.T) {
	s := mustService(t)
	resp, err := s.Run(context.Background(), Request{Source: quickenableSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Quickened {
		t.Error("quickening ran with Config.Quicken unset")
	}
	if snap := s.Stats(); snap.QuickenedPrograms != 0 || snap.QuickenedOps != 0 {
		t.Errorf("quickened counters %d/%d with quickening off, want 0/0",
			snap.QuickenedPrograms, snap.QuickenedOps)
	}
}

// TestQuickenObservablyEquivalent is the service-level half of the
// semantic contract: for every engine and every paper workload, a
// quickened service and an unquickened one agree on output, final
// stack, exact step count and analysis verdict.
func TestQuickenObservablyEquivalent(t *testing.T) {
	engines, plain := plainRuns(t)
	quick := mustService(t, func(c *Config) { c.Quicken = true })

	for _, w := range workloads.All() {
		compile(t, quick, w.Source)
		for _, e := range engines {
			a := plain[plainKey{w.Name, e}]
			b, err := quick.Run(context.Background(), Request{Source: w.Source, Engine: e})
			sameRun(t, w.Name+"/"+e, "quickened", a, b, err)
			if a.Steps != b.Steps {
				t.Errorf("%s/%s: steps %d vs %d (fused execution must count one step per constituent)",
					w.Name, e, a.Steps, b.Steps)
			}
			if a.Analysis != b.Analysis {
				t.Errorf("%s/%s: analysis %q vs %q", w.Name, e, a.Analysis, b.Analysis)
			}
		}
	}
}
