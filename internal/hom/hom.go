// Package hom implements homomorphisms between conjunctive queries and
// instances: the backtracking search underlying CQ evaluation (the
// NP-complete general case, Chandra–Merlin), plain CQ containment and
// equivalence (no constraints), and core computation (CQ minimization).
package hom

import (
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// orderAtoms returns the pattern atoms in a connected, selectivity-
// friendly order: start from the atom with the most constants/bound
// terms, then repeatedly pick the atom sharing the most already-seen
// variables. A good static order keeps the backtracking search shallow.
func orderAtoms(atoms []instance.Atom, bound term.Subst) []instance.Atom {
	n := len(atoms)
	used := make([]bool, n)
	seen := make(map[term.Term]bool, len(bound))
	//semalint:allow detmap(set union into seen; insertion order cannot escape)
	for t := range bound {
		seen[t] = true
	}
	score := func(a instance.Atom) int {
		s := 0
		for _, t := range a.Args {
			if t.IsConst() || seen[t] {
				s += 2
			}
		}
		return s
	}
	out := make([]instance.Atom, 0, n)
	//semalint:allow cancelpoll(selects one unused atom per pass; exactly n iterations)
	for len(out) < n {
		best, bestScore := -1, -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			if s := score(a); s > bestScore {
				best, bestScore = i, s
			}
		}
		used[best] = true
		out = append(out, atoms[best])
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				seen[t] = true
			}
		}
	}
	return out
}

// candidates returns the target atoms that could match pattern a under
// the current substitution, using the most selective available index.
func candidates(target *instance.Instance, a instance.Atom, sub term.Subst) []instance.Atom {
	best := target.ByPred(a.Pred)
	for i, t := range a.Args {
		img := sub.Apply(t)
		if img.IsVar() {
			continue // still unbound
		}
		if img.IsNull() {
			if _, bound := sub[t]; !bound {
				continue // free pattern null: bindable, not a fixed value
			}
		}
		if list := target.ByPos(a.Pred, i, img); len(list) < len(best) {
			best = list
		}
	}
	return best
}

// Enumerate calls yield for every homomorphism from the pattern atoms
// into target that extends init (init itself is never mutated). The
// pattern may mention variables, constants and nulls; variables and
// nulls are bindable, constants are rigid. Enumeration stops early when
// yield returns false. The substitution passed to yield is reused
// across calls; yield must copy it (term.Subst.Clone) to retain it.
func Enumerate(pattern []instance.Atom, target *instance.Instance, init term.Subst, yield func(term.Subst) bool) {
	sub := init.Clone()
	if sub == nil {
		sub = term.NewSubst()
	}
	ordered := orderAtoms(pattern, sub)
	// Backtracks are counted in a local and flushed to the process-
	// global counter once per enumeration: the hot loop pays a plain
	// increment, the observability layer two atomic adds per call.
	var backtracks int64
	// One undo stack serves the whole enumeration: each level marks its
	// height, matches (pushing the keys it binds), recurses, then
	// unbinds and pops its own frame, so a successful match allocates
	// nothing once the stack has grown to the pattern's variable count.
	var undo []term.Term
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(ordered) {
			return yield(sub)
		}
		a := ordered[i]
		cs := pickCandidates(target, a, sub)
		for k := 0; k < cs.n; k++ {
			cand := cs.at(k)
			mark := len(undo)
			var ok bool
			undo, ok = term.MatchTuple(sub, a.Args, cand.Args, undo)
			if !ok {
				backtracks++
				continue
			}
			cont := rec(i + 1)
			term.Unbind(sub, undo[mark:])
			undo = undo[:mark]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	obs.HomEnumerations.Add(1)
	if backtracks > 0 {
		obs.HomBacktracks.Add(backtracks)
	}
}

// Find returns one homomorphism extending init, or nil/false.
func Find(pattern []instance.Atom, target *instance.Instance, init term.Subst) (term.Subst, bool) {
	var out term.Subst
	Enumerate(pattern, target, init, func(s term.Subst) bool {
		out = s.Clone()
		return false
	})
	return out, out != nil
}

// Exists reports whether any homomorphism extends init.
func Exists(pattern []instance.Atom, target *instance.Instance, init term.Subst) bool {
	_, ok := Find(pattern, target, init)
	return ok
}

// Evaluate computes q(I): the set of answer tuples, each a tuple over
// the terms of I, deduplicated, in canonical order (term.CompareTuples).
//
// Allocation discipline: duplicate answers are rejected on dense
// integer ids from a per-call interner — 4 bytes per term in a reused
// buffer, and the map probe with string(buf) does not allocate — so
// only a distinct answer pays for its tuple and its dedup key. The ids
// never influence the output order: the answers are sorted once by
// term.CompareTuples, which builds no key.
func Evaluate(q *cq.CQ, target *instance.Instance) [][]term.Term {
	PrepareTarget(target)
	local := symtab.New()
	seen := make(map[string]bool)
	var answers [][]term.Term
	var idbuf []byte
	Enumerate(q.Atoms, target, nil, func(s term.Subst) bool {
		idbuf = idbuf[:0]
		for _, x := range q.Free {
			idbuf = symtab.AppendID(idbuf, local.Intern(s.Resolve(x)))
		}
		if !seen[string(idbuf)] {
			seen[string(idbuf)] = true
			answers = append(answers, s.ResolveTuple(q.Free))
		}
		return true
	})
	slices.SortFunc(answers, term.CompareTuples)
	return answers
}

// EvaluateBool reports whether the Boolean query holds (for non-Boolean
// queries: whether the answer set is nonempty).
func EvaluateBool(q *cq.CQ, target *instance.Instance) bool {
	PrepareTarget(target)
	return Exists(q.Atoms, target, nil)
}

// HasTuple reports whether tuple ∈ q(I).
func HasTuple(q *cq.CQ, target *instance.Instance, tuple []term.Term) bool {
	if len(tuple) != len(q.Free) {
		return false
	}
	init := term.NewSubst()
	for i, x := range q.Free {
		if prev, ok := init[x]; ok && prev != tuple[i] {
			return false
		}
		init[x] = tuple[i]
	}
	return Exists(q.Atoms, target, init)
}

// Contained decides plain containment q ⊆ q' (over all instances, no
// constraints) by the Chandra–Merlin criterion: freeze q and test
// whether the frozen head tuple is an answer of q' over D_q.
func Contained(q, qp *cq.CQ) bool {
	if len(q.Free) != len(qp.Free) {
		return false
	}
	db, frozen := q.Freeze()
	return HasTuple(qp, db, frozen)
}

// Equivalent decides plain equivalence q ≡ q'.
func Equivalent(q, qp *cq.CQ) bool {
	return Contained(q, qp) && Contained(qp, q)
}
