package core

import (
	"errors"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// decideUnsatisfiable handles the corner where chase(q,Σ) fails: q is
// then Σ-unsatisfiable (the failing egd derivation is sound on any
// chase prefix), so q(D) = ∅ on every D ⊨ Σ, and q is equivalent to
// EVERY Σ-unsatisfiable query of the same head arity. Semantic
// acyclicity therefore reduces to: does an acyclic Σ-unsatisfiable CQ
// with q's free variables exist? We construct candidates from the
// egds' own bodies (two distinct rigid constants forced equal) and
// verify each by chasing it to failure under the layers' chase budget.
//
// Returns (nil, false) when q's chase — the verifier's, which layers 3
// and 4 read too — does not fail, in which case the regular layers
// proceed.
func decideUnsatisfiable(q *cq.CQ, set *deps.Set, v *verifier) (*Result, bool, error) {
	if len(set.EGDs) == 0 || len(q.Constants()) < 2 {
		// Failure needs two distinct rigid constants forced equal; a
		// constant-poor query cannot clash.
		return nil, false, nil
	}
	_, _, err := v.chaseQuery()
	if errors.Is(err, stop.ErrCancelled) {
		return nil, false, err
	}
	if !errors.Is(err, chase.ErrFailed) {
		return nil, false, nil
	}

	// q is Σ-unsatisfiable. Hunt for an acyclic unsatisfiable witness.
	for _, e := range set.EGDs {
		w, ok := unsatCandidate(q, e)
		if !ok {
			continue
		}
		if !hypergraph.IsAcyclic(w.Atoms) {
			continue
		}
		_, _, werr := chase.Query(w, set, v.copt)
		if errors.Is(werr, stop.ErrCancelled) {
			return nil, false, werr
		}
		if errors.Is(werr, chase.ErrFailed) {
			return &Result{
				Verdict:    Yes,
				Witness:    w,
				Definitive: true,
				Layer:      "unsatisfiable",
				Candidates: 1,
			}, true, nil
		}
	}
	// Unsatisfiable, but no acyclic unsatisfiable witness found: the
	// answer hinges on whether one exists at all, which this procedure
	// does not settle.
	return &Result{Verdict: Unknown, Definitive: false, Layer: "unsatisfiable"}, true, nil
}

// unsatCandidate instantiates the egd's body with two distinct fresh
// constants at the equated positions and hosts q's free variables on
// extra atoms over the egd's first body predicate. The body is renamed
// apart from the free variables, so no body variable joins a host atom.
func unsatCandidate(q *cq.CQ, e *deps.EGD) (*cq.CQ, bool) {
	e = e.RenameApart(q.Free)
	sub := term.Subst{
		e.X: term.Const("\x01unsat:a"),
		e.Y: term.Const("\x01unsat:b"),
	}
	var atoms []instance.Atom
	for _, a := range e.Body {
		atoms = append(atoms, a.Apply(sub))
	}
	// Host each free variable on its own atom so the head is valid; the
	// clash above keeps the query unsatisfiable regardless.
	host := e.Body[0]
	for _, f := range q.Free {
		args := make([]term.Term, len(host.Args))
		for i := range args {
			args[i] = f
		}
		atoms = append(atoms, instance.NewAtom(host.Pred, args...))
	}
	w := &cq.CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: atoms}
	if err := w.Validate(); err != nil {
		return nil, false
	}
	return w, true
}
