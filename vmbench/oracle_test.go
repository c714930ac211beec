package main

import (
	"reflect"
	"testing"

	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/workloads"
)

// switchRun executes src on the unoptimized, unquickened switch
// interpreter.
func switchRun(t *testing.T, src string, args []int64) result {
	t.Helper()
	p, err := forth.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	m := interp.NewMachine(p)
	if err := m.ApplySpec(interp.ExecSpec{Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := interp.RunSwitch(m); err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return result{Output: m.Out.String(), Stack: append([]int64{}, m.Stack[:m.SP]...)}
}

// TestEvaluatorAgreesWithSwitch checks the generator's own evaluator
// against the reference interpreter across many seeds: the evaluator is
// the benchmark's oracle, so any disagreement is a benchmark bug.
func TestEvaluatorAgreesWithSwitch(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for i := 0; i < 10; i++ {
			p, want, err := coldProgram(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			if got := switchRun(t, p.Source, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("cold %d-%d: switch %+v, evaluator %+v\n%s", seed, i, got, want, p.Source)
			}
			tp := tinyProgram(seed, i)
			args := tinyArgs(seed, i, 0, tp.NArgs)
			want, _, err = tp.Eval(args)
			if err != nil {
				t.Fatal(err)
			}
			if got := switchRun(t, tp.Source, args); !reflect.DeepEqual(got, want) {
				t.Fatalf("tiny %d-%d: switch %+v, evaluator %+v\n%s", seed, i, got, want, tp.Source)
			}
		}
	}
}

// TestPaperGolden keeps the pinned paper outputs honest: the golden file
// must match an unoptimized switch run of each paper program.
func TestPaperGolden(t *testing.T) {
	golden, err := paperGolden()
	if err != nil {
		t.Fatal(err)
	}
	suite := workloads.Suite()
	if len(golden) != len(suite) {
		t.Fatalf("golden has %d programs, suite %d", len(golden), len(suite))
	}
	for _, w := range suite {
		got := switchRun(t, w.Source, nil)
		if want := golden[w.Name]; got.Output != want.Output || !sameStack(got.Stack, want.Stack) {
			t.Errorf("%s: switch %+v, golden %+v", w.Name, got, want)
		}
	}
}
