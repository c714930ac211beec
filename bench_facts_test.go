package stackcache

// Elision benchmark: every registered engine over the proved paper
// programs in the form vmd serves (an artifact.Store with Quicken and
// Optimize, as the service builds them), once with the unit's analysis
// facts attached and once with the elision kill switch thrown
// (vm.NoFacts, the checked path). The wall-clock companion to the
// elision differential tests in facts_test.go: those prove the two
// paths observably identical, this measures what the proof buys. Only
// the token/threaded/traced handler table and the compiled engine have
// a check-elided path; every other engine runs its one checked loop in
// both modes, so its pair measures the noise floor.
//
// For paired rounds, build the test binary once and alternate the two
// modes of one engine and program on one CPU, e.g.
//
//	go test -c -o elision.test .
//	taskset -c 1 ./elision.test -test.run '^$' -test.benchtime 200ms \
//	    -test.bench 'Elision/token/cross/(elided|checked)$'

import (
	"testing"

	"stackcache/internal/artifact"
	"stackcache/internal/engine"
	"stackcache/internal/forth"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
	"stackcache/internal/workloads"
)

// elisionWorkloads are the paper programs vm.Analyze proves; gray is
// recursive, stays unproven and would run checked in both modes.
var elisionWorkloads = []string{"compile", "prims2x", "cross"}

func BenchmarkElision(b *testing.B) {
	store := artifact.NewStore(artifact.Config{
		Quicken: true, Optimize: true, Fingerprint: "quicken=true,optimize=true",
	})
	opts := forth.Options{}
	units := make([]*artifact.Unit, len(elisionWorkloads))
	for i, name := range elisionWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("workload %s missing", name)
		}
		u, _, err := store.GetOrBuild("src:"+artifact.SourceHash(opts.CacheKey(), w.Source),
			func() (*vm.Program, error) { return forth.CompileWithOptions(w.Source, opts) })
		if err != nil {
			b.Fatal(err)
		}
		if !u.Facts().Proved {
			b.Fatalf("%s unproven; the elision benchmark needs proved programs", name)
		}
		units[i] = u
	}
	for _, e := range engine.All() {
		for k, u := range units {
			for _, mode := range []string{"elided", "checked"} {
				spec := interp.ExecSpec{Facts: u.Facts()}
				if mode == "checked" {
					spec.Facts = vm.NoFacts
				}
				b.Run(e.Name()+"/"+elisionWorkloads[k]+"/"+mode, func(b *testing.B) {
					m := new(interp.Machine)
					var steps int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m.Rebind(u.Prog)
						if err := m.ApplySpec(spec); err != nil {
							b.Fatal(err)
						}
						if err := e.Run(m); err != nil {
							b.Fatal(err)
						}
						steps = m.Steps
					}
					reportPerInst(b, steps)
				})
			}
		}
	}
}
