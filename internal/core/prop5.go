package core

import (
	"fmt"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hypergraph"
)

// ContainmentViaSemAc realizes Proposition 5 of the paper: for a set Σ
// of body-connected tgds and Boolean, connected, variable-disjoint CQs
// q and q' with q acyclic and q' NOT semantically acyclic under Σ,
//
//	q ⊆Σ q'   iff   q ∧ q' is semantically acyclic under Σ.
//
// The function checks the mechanically checkable premises (Boolean,
// connected, q acyclic, Σ body-connected; variable disjointness is
// arranged by renaming q' apart) and then answers the containment by a
// SemAc decision on the conjunction. The premise "q' is not
// semantically acyclic under Σ" is the caller's responsibility — it is
// itself a SemAc instance (that circularity is exactly why Proposition
// 5 yields the paper's undecidability transfer, Corollary 6).
//
// The returned verdict follows Decide's semantics: Yes means q ⊆Σ q'
// holds; No (definitive) means it does not; Unknown means budgets ran
// out.
func ContainmentViaSemAc(q, qp *cq.CQ, set *deps.Set, opt Options) (*Result, error) {
	if !q.IsBoolean() || !qp.IsBoolean() {
		return nil, fmt.Errorf("core: Proposition 5 needs Boolean queries")
	}
	if !q.IsConnected() || !qp.IsConnected() {
		return nil, fmt.Errorf("core: Proposition 5 needs connected queries")
	}
	if !hypergraph.IsAcyclic(q.Atoms) {
		return nil, fmt.Errorf("core: Proposition 5 needs an acyclic left-hand query")
	}
	for _, t := range set.TGDs {
		if !t.IsBodyConnected() {
			return nil, fmt.Errorf("core: Proposition 5 needs body-connected tgds (%s)", t)
		}
	}
	renamed, _ := qp.RenameApart(q)
	return Decide(cq.Conjoin(q, renamed), set, opt)
}
