package core

import (
	"fmt"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Approximation is an acyclic CQ contained in q under Σ, maximal among
// the candidates explored (§8.2 of the paper). When q is semantically
// acyclic the approximation is equivalent to q.
type Approximation struct {
	Query *cq.CQ
	// Equivalent reports that the approximation is Σ-equivalent to q
	// (i.e. q was semantically acyclic and this is a witness).
	Equivalent bool
	// Candidates counts the acyclic candidates considered.
	Candidates int
}

// Approximate computes an acyclic CQ approximation of q under the set:
// an acyclic q' with q' ⊆Σ q such that no other explored acyclic
// candidate strictly lies between q' and q. Per the paper (§8.2) an
// approximation always exists for constant-free queries; the trivial
// single-variable collapse provides the fallback candidate.
func Approximate(q *cq.CQ, set *deps.Set, opt Options) (*Approximation, error) {
	opt = opt.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if set == nil {
		set = &deps.Set{}
	}

	// A semantically acyclic q yields an equivalent approximation.
	dec, err := Decide(q, set, opt)
	if err != nil {
		return nil, err
	}
	if dec.Verdict == Yes {
		return &Approximation{Query: dec.Witness, Equivalent: true, Candidates: dec.Candidates}, nil
	}

	// Candidate pool: variable-merging images σ(q). Each satisfies
	// σ(q) ⊆ q (σ itself is a homomorphism from q into σ(q), which by
	// Chandra–Merlin is exactly σ(q) ⊆ q), so every acyclic image is a
	// valid approximation candidate. Atom-dropping is excluded — it
	// weakens the query, i.e. gives containment in the wrong direction.
	candidates := []*cq.CQ{}
	seen := map[string]bool{}
	examined := 0

	addIfAcyclic := func(c *cq.CQ) {
		c = c.DedupAtoms()
		k := c.CanonicalKey()
		if seen[k] {
			return
		}
		seen[k] = true
		examined++
		if hypergraph.IsAcyclic(c.Atoms) && c.Validate() == nil {
			candidates = append(candidates, c)
		}
	}

	// BFS over variable-merging quotients (each merge yields a query
	// contained in q): layer 2's moves without its atom drops, built
	// and keyed in scratch and copied only when unseen. The total
	// collapse is always reached, giving the guaranteed fallback for
	// constant-free queries.
	var keyer cq.Keyer
	var moves moveGen
	start := q.DedupAtoms()
	queue := []*cq.CQ{start}
	seen[string(keyer.Key(start.Free, start.Atoms))] = true
	for len(queue) > 0 && examined < opt.SearchBudget {
		if opt.cancelled() {
			return nil, ErrCancelled
		}
		cur := queue[0]
		queue = queue[1:]
		if hypergraph.IsAcyclic(cur.Atoms) && cur.Validate() == nil {
			candidates = append(candidates, cur)
		}
		moves.each(cur, false, func(atoms []instance.Atom) {
			if k := keyer.Key(cur.Free, atoms); !seen[string(k)] {
				seen[string(k)] = true
				examined++
				next := cq.CQ{Name: cur.Name, Free: cur.Free, Atoms: atoms}
				queue = append(queue, next.Clone())
			}
		})
	}
	// Guarantee the fallback candidate even under tight budgets: the
	// total collapse of the existential variables.
	addIfAcyclic(totalCollapse(q))
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no acyclic candidate found (free variables block the total collapse)")
	}

	// Pick a maximal candidate under ⊆Σ.
	best := candidates[0]
	for _, c := range candidates[1:] {
		// If best ⊆Σ c and not conversely, c is strictly more general.
		up, err := containment.Contains(best, c, set, opt.Containment)
		if err != nil {
			return nil, mapCancelled(err)
		}
		if !up.Holds {
			continue
		}
		down, err := containment.Contains(c, best, set, opt.Containment)
		if err != nil {
			return nil, mapCancelled(err)
		}
		if !down.Holds {
			best = c
		}
	}
	// Core-reduce the winner: the core is equivalent, still acyclic
	// (a subset of the winner's atoms), and minimal to read.
	c, err := hom.CoreCancel(best, opt.Cancel)
	if err != nil {
		return nil, mapCancelled(err)
	}
	return &Approximation{Query: c, Equivalent: false, Candidates: examined}, nil
}

// totalCollapse returns the image of q merging every existential
// variable into one: for constant-free Boolean queries this is the
// single-variable query R(x,...,x) per atom, the guaranteed acyclic
// candidate of §8.2. Free variables are kept distinct.
func totalCollapse(q *cq.CQ) *cq.CQ {
	x := term.Var("x_collapse")
	freeSet := make(map[term.Term]bool, len(q.Free))
	for _, f := range q.Free {
		freeSet[f] = true
	}
	s := term.NewSubst()
	for _, v := range q.Vars() {
		if !freeSet[v] {
			s[v] = x
		}
	}
	return q.ApplySubst(s).DedupAtoms()
}
