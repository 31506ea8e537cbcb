package containment

import (
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
)

// ContainsUCQ decides Q ⊆Σ Q' for unions of conjunctive queries: every
// disjunct of Q must be Σ-contained in Q', and a CQ q is contained in a
// union iff it is contained in the union as a whole — which for the
// chase-based method means some disjunct of Q' evaluates to the frozen
// head over chase(q,Σ). Conservatively (and exactly, for the classes
// used here) we test per-disjunct containment q ⊆Σ q'_j.
//
// Per-disjunct testing is sound always; for UCQ right-hand sides it is
// also complete whenever the chase characterization applies, because
// chase(q,Σ) is a single canonical instance: c(x̄) ∈ Q'(chase(q,Σ)) iff
// it is in some disjunct's evaluation. Each disjunct of Q is prepared
// once (PrepareLeft) and checked against every disjunct of Q'.
func ContainsUCQ(q, qp *cq.UCQ, set *deps.Set, opt Options) (Decision, error) {
	overall := Decision{Holds: true, Definitive: true}
	for _, qi := range q.Disjuncts {
		left := PrepareLeft(qi, set, opt)
		hit := false
		definitiveMiss := true
		for _, qj := range qp.Disjuncts {
			dec, err := left.Check(qj, opt.cancel(left.m))
			if err != nil {
				return Decision{}, err
			}
			overall.Method = dec.Method
			if dec.Holds {
				hit = true
				break
			}
			if !dec.Definitive {
				definitiveMiss = false
			}
		}
		if !hit {
			return Decision{Holds: false, Definitive: definitiveMiss, Method: overall.Method}, nil
		}
	}
	return overall, nil
}

// EquivalentUCQ decides Q ≡Σ Q'.
func EquivalentUCQ(q, qp *cq.UCQ, set *deps.Set, opt Options) (Decision, error) {
	a, err := ContainsUCQ(q, qp, set, opt)
	if err != nil || !a.Holds {
		return a, err
	}
	b, err := ContainsUCQ(qp, q, set, opt)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Holds: b.Holds, Definitive: a.Definitive && b.Definitive, Method: b.Method}, nil
}
