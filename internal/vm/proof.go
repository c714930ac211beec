package vm

// Proof binds a program to the result of its Verify and Analyze. Only
// this package constructs one — Prove, Proof.Quicken and
// ProveTranslation — so the facts a Proof carries are always the
// analyzer's own verdict on exactly its program: code outside vm can
// hand a Proof on, but cannot forge or swap its facts.
//
// That is what lets a pipeline prove each distinct program once. The
// artifact store proves the produced program, the translation
// validator takes that Proof as its original and proves the rewrite
// itself, and quickening carries the facts over to the fused program
// (Proof.Quicken). The untrusted optimizer never supplies facts, so
// sharing them widens nothing the validator relies on (DESIGN §3i).
//
// A Proof records a verdict, not a success: the program verified, but
// Facts().Proved may be false. The zero Proof binds no program;
// OptimizeProof and ProveTranslation treat it as unproven.
type Proof struct {
	prog  *Program
	facts *Facts
}

// Prove verifies p and, when it verifies, analyzes it. The error is
// Verify's, unwrapped.
func Prove(p *Program) (*Proof, error) {
	if err := Verify(p); err != nil {
		return nil, err
	}
	return &Proof{prog: p, facts: Analyze(p)}, nil
}

// Program returns the verified program.
func (pf *Proof) Program() *Program { return pf.prog }

// Facts returns Analyze's result for Program(). It is shared, not
// copied: callers must not modify it.
func (pf *Proof) Facts() *Facts { return pf.facts }
