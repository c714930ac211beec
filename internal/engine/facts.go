package engine

import (
	"stackcache/internal/artifact"
	"stackcache/internal/interp"
	"stackcache/internal/vm"
)

// FactsFor returns vm.Analyze's result for p, computed at most once
// per program even under concurrent callers. The engines that elide
// stack checks on proved programs look their facts up here. It is a
// view over the artifact store: programs that came through a service
// or CLI store resolve to their published Unit (whose facts may have
// been loaded from disk), and everything else interns a bare unit on
// first sight. Programs are keyed by identity — they are immutable
// once compiled, and the stores in front of the registry already
// deduplicate by content.
func FactsFor(p *vm.Program) *vm.Facts {
	return artifact.Of(p).Facts()
}

// attachFacts supplies the machine's Facts from the artifact view when
// the caller did not set them (interp.ExecSpec.Facts). Only the engines
// with a check-elided path call it: token, threaded and traced (the
// handler table) and compiled. Every other engine runs its one checked
// loop and never reads facts. A caller pinning vm.NoFacts keeps the
// checked path.
func attachFacts(m *interp.Machine) {
	if m.Facts == nil {
		m.Facts = FactsFor(m.Prog)
	}
}
