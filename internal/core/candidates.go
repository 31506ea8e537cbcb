package core

import (
	"errors"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// searchQuotients explores homomorphic collapses and subqueries of q.
// Dropping an atom weakens the query (q ⊆ r plainly) while merging
// variables strengthens it (r ⊆ q plainly); since the BFS mixes both
// moves, every acyclic candidate gets a full two-sided equivalence
// verification. BFS with canonical-form dedup, budgeted.
func searchQuotients(q *cq.CQ, v *verifier, opt Options) (*cq.CQ, int, error) {
	start := q.DedupAtoms()
	seen := map[string]bool{start.CanonicalKey(): true}
	queue := []*cq.CQ{start}
	examined := 0

	for len(queue) > 0 && examined < opt.SearchBudget {
		if opt.cancelled() {
			return nil, examined, ErrCancelled
		}
		cur := queue[0]
		queue = queue[1:]
		examined++

		if hypergraph.IsAcyclic(cur.Atoms) {
			ok, _, err := v.verifyWitness(cur)
			if err != nil {
				return nil, examined, err
			}
			if ok {
				return cur, examined, nil
			}
		}
		for _, next := range quotientMoves(cur) {
			k := next.CanonicalKey()
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return nil, examined, nil
}

// quotientMoves returns the one-step reductions of cur: drop one atom
// (keeping free variables covered) or merge one variable pair (never
// merging two distinct free variables).
func quotientMoves(cur *cq.CQ) []*cq.CQ {
	var out []*cq.CQ

	// Drop an atom.
	if len(cur.Atoms) > 1 {
		free := make(map[term.Term]bool, len(cur.Free))
		for _, x := range cur.Free {
			free[x] = true
		}
		for i := range cur.Atoms {
			rest := make([]instance.Atom, 0, len(cur.Atoms)-1)
			rest = append(rest, cur.Atoms[:i]...)
			rest = append(rest, cur.Atoms[i+1:]...)
			covered := make(map[term.Term]bool)
			for _, a := range rest {
				for _, v := range a.Vars() {
					covered[v] = true
				}
			}
			ok := true
			//semalint:allow detmap(universal membership test; verdict is order-independent)
			for x := range free {
				if !covered[x] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// cur is duplicate-free, so rest is too: no dedup needed.
			out = append(out, &cq.CQ{Name: cur.Name, Free: append([]term.Term(nil), cur.Free...), Atoms: rest})
		}
	}

	// Merge a variable pair (x stays, y goes; y must be existential).
	vars := cur.Vars()
	free := make(map[term.Term]bool, len(cur.Free))
	for _, x := range cur.Free {
		free[x] = true
	}
	for i, x := range vars {
		for j, y := range vars {
			if i == j || free[y] {
				continue
			}
			s := term.Subst{y: x}
			out = append(out, cur.ApplySubst(s).DedupAtoms())
		}
	}
	return out
}

// searchChaseSubsets enumerates acyclic connected atom-subsets of the
// (bounded, thawed) chase of q up to the witness bound, checking both
// containments for each candidate.
func searchChaseSubsets(q *cq.CQ, set *deps.Set, v *verifier, opt Options, bound int) (*cq.CQ, int, error) {
	if bound <= 0 {
		bound = 2 * q.Size()
	}
	copt := opt.Containment.Chase
	if copt.MaxDepth <= 0 && copt.MaxSteps <= 0 {
		// Keep the chase pool small: candidates only need to cover
		// reformulations reachable within a few derivation steps.
		copt.MaxDepth = q.Size() + len(set.TGDs) + 2
		copt.MaxSteps = 2000
	}
	chSp := opt.Trace.Start("chase")
	res, frozen, err := chase.Query(q, set, copt)
	chSp.End()
	if err != nil {
		if errors.Is(err, chase.ErrCancelled) {
			return nil, 0, ErrCancelled
		}
		// A failing egd chase means no instance satisfies q's pattern
		// constraints; no candidates from this layer.
		return nil, 0, nil
	}
	atoms := cq.ThawAtoms(res.Instance.Atoms())

	// The free variables after thawing: frozen tuple entries map back
	// to variables (possibly merged by egds).
	freeVars := make([]term.Term, len(frozen))
	for i, f := range frozen {
		if cq.IsFrozenConst(f) {
			freeVars[i] = cq.Thaw(f)
		} else {
			freeVars[i] = f // a rigid constant survived; cannot be free
		}
	}
	for _, f := range freeVars {
		if !f.IsVar() {
			return nil, 0, nil // frozen head merged into a constant: no CQ witness here
		}
	}

	// Grow connected subsets: start from each atom, extend by atoms
	// sharing a variable, up to the bound; dedup by canonical key.
	seen := make(map[string]bool)
	examined := 0
	steps := 0
	var witness *cq.CQ

	var grow func(sel []instance.Atom, used map[int]bool) (bool, error)
	grow = func(sel []instance.Atom, used map[int]bool) (bool, error) {
		steps++
		if examined >= opt.SearchBudget || steps >= 50*opt.SearchBudget {
			return false, nil
		}
		if steps%256 == 0 && opt.cancelled() {
			return false, ErrCancelled
		}
		cand := &cq.CQ{Name: q.Name, Free: append([]term.Term(nil), freeVars...), Atoms: cloneAtoms(sel)}
		if err := cand.Validate(); err == nil {
			k := cand.CanonicalKey()
			if !seen[k] {
				seen[k] = true
				examined++
				if hypergraph.IsAcyclic(cand.Atoms) {
					ok, _, err := v.verifyWitness(cand)
					if err != nil {
						return false, err
					}
					if ok {
						witness = cand
						return true, nil
					}
				}
			}
		}
		if len(sel) >= bound {
			return false, nil
		}
		selVars := make(map[term.Term]bool)
		for _, a := range sel {
			for _, v := range a.Vars() {
				selVars[v] = true
			}
		}
		for i, a := range atoms {
			if used[i] {
				continue
			}
			shares := false
			for _, v := range a.Vars() {
				if selVars[v] {
					shares = true
					break
				}
			}
			if !shares && len(sel) > 0 {
				continue
			}
			used[i] = true
			done, err := grow(append(sel, a), used)
			used[i] = false
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	}

	if _, err := grow(nil, make(map[int]bool)); err != nil {
		return nil, examined, err
	}
	return witness, examined, nil
}

func cloneAtoms(atoms []instance.Atom) []instance.Atom {
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
}
