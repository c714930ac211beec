package engine

// The repository's engine set. Each variant is one Register call;
// Names()/All() order is canonical (switch baseline first, rest
// alphabetical) regardless of registration order here.

import (
	"fmt"
	"sync"

	"stackcache/internal/artifact"
	"stackcache/internal/compiled"
	"stackcache/internal/core"
	"stackcache/internal/dyncache"
	"stackcache/internal/gendyn"
	"stackcache/internal/gendyn4"
	"stackcache/internal/interp"
	"stackcache/internal/statcache"
	"stackcache/internal/vm"
)

func init() {
	Register("switch", func(Policies) Engine { return &runFunc{"switch", interp.RunSwitch} })
	Register("compiled", func(Policies) Engine { return &compiledEngine{} })
	Register("token", func(Policies) Engine { return &runFunc{"token", withFacts(interp.RunToken)} })
	Register("threaded", func(Policies) Engine { return &runFunc{"threaded", withFacts(interp.RunThreaded)} })
	Register("traced", func(Policies) Engine { return Traced(nil) })
	Register("dynamic", func(p Policies) Engine {
		return &cachingEngine{name: "dynamic", build: func() (*dyncache.Org, error) { return dyncache.New(p.Dynamic) }}
	})
	Register("rotating", func(p Policies) Engine {
		return &cachingEngine{name: "rotating", build: func() (*dyncache.Org, error) { return dyncache.New(p.Rotating) }}
	})
	Register("twostacks", func(p Policies) Engine {
		return &cachingEngine{name: "twostacks", build: func() (*dyncache.Org, error) { return dyncache.NewTwoStacks(p.TwoStacks) }}
	})
	Register("static", func(p Policies) Engine { return &staticEngine{pol: p.Static} })
	Register("gendyn", func(Policies) Engine { return &runFunc{"gendyn", gendyn.Run} })
	Register("gendyn4", func(Policies) Engine { return &runFunc{"gendyn4", gendyn4.Run} })
}

// runFunc adapts a plain run function (the baseline interpreters and
// the generated per-state interpreters, whose policies are baked in at
// generation time).
type runFunc struct {
	name string
	run  func(*interp.Machine) error
}

func (r *runFunc) Name() string { return r.name }

func (r *runFunc) Run(m *interp.Machine) error { return r.run(m) }

// withFacts wraps the run function of an engine with a check-elided
// path (the token handler table) so each run sees the program's
// analysis facts.
func withFacts(run func(*interp.Machine) error) func(*interp.Machine) error {
	return func(m *interp.Machine) error {
		attachFacts(m)
		return run(m)
	}
}

// tracedEngine is the token interpreter with a per-instruction visit
// hook — the trace-capture engine behind internal/constcache and
// internal/trace, available through the registry like any other
// engine.
type tracedEngine struct {
	visit func(pc int, ins vm.Instr)
}

// Traced returns a tracing engine invoking visit before each executed
// instruction. The registered "traced" engine uses a nil visitor —
// pure dispatch-hook overhead — so it can serve requests; analysis
// callers build their own with a real visitor.
func Traced(visit func(pc int, ins vm.Instr)) Engine {
	return &tracedEngine{visit: visit}
}

func (t *tracedEngine) Name() string { return "traced" }

func (t *tracedEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	return interp.RunTracedOn(m, t.visit)
}

// cachingEngine is one dynamic stack-caching organization. Its
// transition tables are built once, on the engine's first Run, and
// shared by every Run after it; a daemon whose requests never name the
// engine does not build them.
type cachingEngine struct {
	name  string
	build func() (*dyncache.Org, error)
	once  sync.Once
	org   *dyncache.Org
	err   error
}

func (e *cachingEngine) Name() string { return e.name }

func (e *cachingEngine) Run(m *interp.Machine) error {
	_, err := e.RunCounted(m)
	return err
}

func (e *cachingEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	e.once.Do(func() { e.org, e.err = e.build() })
	if e.err != nil {
		return core.Counters{}, e.err
	}
	res, err := e.org.Run(m)
	return res.Counters, err
}

// staticEngine is static stack caching: per-program compile-once plans
// executed on an explicit register file. Plans live on the program's
// artifact unit, keyed by the engine's full policy fingerprint, so two
// engine instances with the same policy share one plan and two
// policies on one program get distinct plans (the per-request policy
// override path, engine.AllWith, is finally cache-correct).
type staticEngine struct {
	pol statcache.Policy
}

// prepKey is the policy fingerprint the plan is filed under on a unit.
// Every Policy field participates: a plan is a pure function of
// (program, policy), and the key must say so structurally.
func (e *staticEngine) prepKey() string {
	return fmt.Sprintf("static|nregs=%d|canon=%d|manips=%t|pts=%t",
		e.pol.NRegs, e.pol.Canonical, e.pol.KeepManips, e.pol.PerTargetStates)
}

// planOn returns the unit's compile-once plan for this policy,
// compiling it at most once even under concurrent callers.
func (e *staticEngine) planOn(u *artifact.Unit) (*statcache.Plan, error) {
	v, err := u.Prepared(e.prepKey(), func() (any, error) {
		return statcache.Compile(u.Prog, e.pol)
	})
	if err != nil {
		return nil, err
	}
	return v.(*statcache.Plan), nil
}

// planFor resolves p to its artifact unit (store-published or interned
// on first sight) and returns the plan.
func (e *staticEngine) planFor(p *vm.Program) (*statcache.Plan, error) {
	return e.planOn(artifact.Of(p))
}

func (e *staticEngine) Name() string { return "static" }

// Prepare compiles (or finds) the unit's plan, so services can
// front-load compile failures before queueing the execution.
func (e *staticEngine) Prepare(u *artifact.Unit) error {
	_, err := e.planOn(u)
	return err
}

func (e *staticEngine) Run(m *interp.Machine) error {
	plan, err := e.planFor(m.Prog)
	if err != nil {
		return err
	}
	_, err = statcache.ExecuteOn(m, plan)
	return err
}

func (e *staticEngine) RunCounted(m *interp.Machine) (core.Counters, error) {
	plan, err := e.planFor(m.Prog)
	if err != nil {
		return core.Counters{}, err
	}
	res, err := statcache.ExecuteOn(m, plan)
	if res == nil {
		return core.Counters{}, err
	}
	return res.Counters, err
}

// Traits: the static engine's guard zone turns some underflows into
// reads of zero, and its compiler requires verified input.
func (e *staticEngine) Traits() Traits {
	return Traits{Exact: false, NeedsVerify: true}
}

// compiledEngine is the AOT closure compiler: per-program artifacts of
// fused continuation-threaded closures (internal/compiled), filed on
// the program's artifact unit so every engine instance shares one
// compile. The blob is compiled against the unit's analysis facts, so
// proved programs carry a check-elided code variant selected at run
// time by the standard ElideChecks gate.
type compiledEngine struct{}

// artifactOn returns the unit's compile-once AOT artifact, compiling
// at most once even under concurrent callers. The closure compiler
// takes no policy, so the key is the bare engine name.
func (e *compiledEngine) artifactOn(u *artifact.Unit) (*compiled.Artifact, error) {
	v, err := u.Prepared("compiled", func() (any, error) {
		return compiled.Compile(u.Prog, u.Facts())
	})
	if err != nil {
		return nil, err
	}
	return v.(*compiled.Artifact), nil
}

func (e *compiledEngine) artifactFor(p *vm.Program) (*compiled.Artifact, error) {
	return e.artifactOn(artifact.Of(p))
}

func (e *compiledEngine) Name() string { return "compiled" }

// Prepare compiles (or finds) the unit's artifact, so services can
// front-load compile failures before queueing the execution.
func (e *compiledEngine) Prepare(u *artifact.Unit) error {
	_, err := e.artifactOn(u)
	return err
}

func (e *compiledEngine) Run(m *interp.Machine) error {
	attachFacts(m)
	art, err := e.artifactFor(m.Prog)
	if err != nil {
		return err
	}
	return art.Run(m)
}
