package core

import (
	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/schema"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// searchEngine is the state of one SearchComplete run: the read-only
// problem inputs, the budget spent so far, the candidate memo and the
// scratch the walk reuses.
//
// Determinism contract: the search walks the candidates depth-first in
// canonical order from the empty candidate and stops at the first
// witness. It returns the witness only when the subtree of every
// earlier first atom was enumerated completely: a subtree that the
// budget or an indefinite verdict truncated may hide an earlier
// witness, so a witness after it is discarded and the run reports a
// non-exhaustive miss. A truncated subtree does not end the walk: the
// later first atoms are still walked until the budget is spent or a
// witness turns up, and their verifications count in the examined
// total.
type searchEngine struct {
	q      *cq.CQ
	set    *deps.Set
	opt    Options
	bound  int
	preds  []schema.Predicate
	target *instance.Instance // chase(q,Σ) prefix: the Lemma 1 pruning target
	pin    term.Subst
	consts []term.Term
	free   []term.Term
	names  []term.Term // the fresh variables the walk can use (freshNames)

	// The budget: steps counts enumeration nodes, examined the
	// verifications granted. starved records a refused verification,
	// after which the enumeration stops. complete stays true until the
	// walk is truncated: a step or a verification refused, or a verdict
	// indefinite.
	steps    int64
	maxSteps int64
	examined int
	budget   int
	starved  bool
	complete bool

	// witness is the verified candidate the walk stopped at; nil while
	// none was found, or once the contract above discarded it.
	witness *cq.CQ

	// memo holds the verdicts of the candidates verified so far, keyed
	// by keyer's renaming-invariant canonical key, so the up-to-k!
	// permutations of a k-atom candidate pay for one verification
	// between them. Verification is a pure function of the key, so a hit
	// returns exactly what recomputation would. nil when
	// DisableSearchMemo is set.
	memo  map[string]candVerdict
	keyer cq.Keyer

	// checker is the decision's containment checker for the fixed
	// right-hand side q, and runner the verifier's runner it freezes and
	// chases candidates in. checker is nil when DisableSearchMemo is set:
	// every verification then re-derives the right-hand side.
	checker *containment.Prepared
	runner  *chase.Runner

	// Level d of stack holds the candidate's atom d, built in
	// argSlab[d*maxArity:] from the argument pool pools[d]. The scratch
	// grows as the search first enters a level, so it follows the depth
	// reached, not the bound. A level's buffers change only after the
	// extension below it returns, and a buffer that grows leaves the
	// atoms already built in its old array.
	stack    []instance.Atom
	argSlab  []term.Term
	pools    [][]term.Term
	maxArity int

	// st receives the run's observability counters.
	st                           *obs.Stats
	pruned, verified, indefinite int64
	memoHits, memoMisses         int64
}

// candVerdict is a memoized containment decision for one candidate.
type candVerdict struct {
	holds      bool
	definitive bool
}

// argumentPool appends to dst the terms an atom argument may take: the
// query's free variables, the canonical fresh variables in names
// (the first nextVar+maxFreshPerAtom of freshNames), and the constants
// in scope. Fresh variables beyond nextVar are capped by
// canonical-introduction filtering in expand, which reads a term's rank
// from its position (freshRank).
func (e *searchEngine) argumentPool(dst, names []term.Term) []term.Term {
	dst = append(dst, e.free...)
	dst = append(dst, names...)
	return append(dst, e.consts...)
}

// run walks the candidates from the empty one and returns the witness,
// the number of verifications granted, and whether the walk was
// enumerated completely.
func (e *searchEngine) run() (*cq.CQ, int, bool, error) {
	for _, p := range e.preds {
		e.maxArity = max(e.maxArity, p.Arity)
	}
	e.complete = true
	if e.bound > 0 {
		if _, err := e.expand(nil, 0); err != nil {
			// Cancellation or a failed check: the deterministic fields
			// keep their "not defined" sentinels, so a partial record
			// never passes for a completed run's.
			e.fillStats(-1, false)
			return nil, e.examined, false, err
		}
	}
	if e.witness != nil {
		e.fillStats(e.examined, false)
		return e.witness, e.examined, false, nil
	}
	if !e.complete {
		e.fillStats(-1, false)
		return nil, e.examined, false, nil
	}
	e.fillStats(e.examined, true)
	return nil, e.examined, true, nil
}

// fillStats writes the run's counters into the attached obs.Stats.
// decisive is the verifications up to the decision point, -1 when the
// run was truncated without a witness.
func (e *searchEngine) fillStats(decisive int, exhausted bool) {
	s := &e.st.Search
	s.Bound = e.bound
	s.Budget = e.budget
	s.Exhausted = exhausted
	s.Candidates = decisive
	s.CandidatesObserved = e.examined
	s.NodesVisited = e.steps
	s.PrunedByHom = e.pruned
	s.Verified = e.verified
	s.Indefinite = e.indefinite
	s.CandMemoHits = e.memoHits
	s.CandMemoMisses = e.memoMisses
	c := &e.st.Containment
	if e.checker != nil {
		c.Method = string(e.checker.SelectedMethod())
		c.RewriteDisjuncts, c.RewriteComplete = e.checker.RewriteSize()
	} else {
		c.Method = string(containment.SelectMethod(e.set, e.opt.Containment))
		c.RewriteDisjuncts = -1 // no prepared rewriting (memo disabled)
	}
	obs.SearchRuns.Add(1)
	obs.SearchCandidates.Add(int64(e.examined))
}

// extend visits one candidate: prune by pinned homomorphism into
// chase(q,Σ), verify it if acyclic, and expand it while it is below
// the bound. Candidates are prefixes of the engine's atom stack whose
// atoms live in each level's argument buffer; nothing that prunes, keys
// or verifies a prefix keeps it, so only the witness is copied. done
// reports that the walk must stop: a witness turned up.
func (e *searchEngine) extend(atoms []instance.Atom, nextVar int) (done bool, err error) {
	e.steps++
	if e.steps > e.maxSteps || e.starved {
		e.complete = false
		return false, nil
	}
	if e.steps%256 == 0 && stop.Cancelled(e.opt.Cancel) {
		return false, stop.ErrCancelled
	}
	// Prune: q ⊆Σ candidate requires a pinned homomorphism of the
	// candidate into chase(q,Σ).
	if !hom.Exists(atoms, e.target, e.pin) {
		e.pruned++
		return false, nil
	}
	if done, err := e.tryCandidate(atoms); err != nil || done {
		return done, err
	}
	if len(atoms) >= e.bound {
		return false, nil
	}
	return e.expand(atoms, nextVar)
}

// tryCandidate verifies a complete candidate. The enumeration pruning
// has already certified q ⊆Σ cand — the candidate has a pinned
// homomorphism into chase(q,Σ), which by Lemma 1 is exactly that
// containment (sound even on a chase prefix) — so only the converse
// direction needs checking here.
func (e *searchEngine) tryCandidate(atoms []instance.Atom) (bool, error) {
	// Validate, by scanning: a candidate's predicates come from the
	// joint schema and its arguments from the free variables, fresh
	// variables and the constants of q and Σ, so only free-variable
	// coverage can fail.
	if !coversFree(e.free, atoms, -1) {
		return false, nil
	}
	cand := cq.CQ{Name: e.q.Name, Free: e.free, Atoms: atoms}
	if !hypergraph.IsAcyclic(atoms) {
		return false, nil
	}
	if e.examined == e.budget {
		e.starved = true
		e.complete = false
		return false, nil
	}
	e.examined++
	v, err := e.verify(&cand)
	if err != nil {
		return false, err
	}
	if v.holds {
		e.witness = cand.Clone()
		return true, nil
	}
	if !v.definitive {
		e.complete = false
		e.indefinite++
	}
	return false, nil
}

// expand extends atoms by one atom over each predicate, in name order,
// with arguments drawn from the free variables, the variables used so
// far, fresh variables in canonical-introduction order, and the
// available constants, and visits each extension.
func (e *searchEngine) expand(atoms []instance.Atom, nextVar int) (bool, error) {
	d := len(atoms)
	if len(e.pools) <= d {
		e.pools = append(e.pools, make([][]term.Term, d+1-len(e.pools))...)
		e.argSlab = append(e.argSlab, make([]term.Term, (d+1)*e.maxArity-len(e.argSlab))...)
	}
	e.pools[d] = e.argumentPool(e.pools[d][:0], e.names[:nextVar+maxFreshPerAtom])
	pool := e.pools[d]
	for _, p := range e.preds {
		args := e.argSlab[d*e.maxArity : d*e.maxArity+p.Arity]
		var fill func(pos, maxNew int) (bool, error)
		fill = func(pos, maxNew int) (bool, error) {
			if pos == p.Arity {
				atom := instance.Atom{Pred: p.Name, Args: args}
				if containsAtom(atoms, atom) {
					return false, nil
				}
				e.stack = append(e.stack[:d], atom)
				if d > 0 {
					return e.extend(e.stack, nextVar+maxNew)
				}
				// A witness under this first atom counts only if the
				// subtree of every earlier first atom was complete.
				earlier := e.complete
				done, err := e.extend(e.stack, nextVar+maxNew)
				if done && !earlier {
					e.witness = nil
				}
				return done, err
			}
			for j, t := range pool {
				// Canonical introduction: a fresh variable may only be
				// used if all earlier fresh ranks are in use.
				rank, fresh := e.freshRank(j, nextVar)
				if fresh && rank > maxNew {
					continue
				}
				newMax := maxNew
				if fresh && rank == maxNew {
					newMax = maxNew + 1
				}
				args[pos] = t
				done, err := fill(pos+1, newMax)
				if err != nil || done {
					return done, err
				}
			}
			return false, nil
		}
		if done, err := fill(0, 0); err != nil || done {
			return done, err
		}
	}
	return false, nil
}

// verify runs the candidate's containment check in the verifier's
// runner, memoized on the candidate's canonical key.
func (e *searchEngine) verify(cand *cq.CQ) (candVerdict, error) {
	var key []byte
	if e.memo != nil {
		key = e.keyer.Key(cand.Free, cand.Atoms)
		if v, ok := e.memo[string(key)]; ok {
			e.memoHits++
			return v, nil
		}
		e.memoMisses++
	}
	e.verified++
	var dec containment.Decision
	var err error
	if e.checker != nil {
		dec, err = e.checker.Check(cand, e.runner, e.opt.Containment.Chase.Cancel)
	} else {
		dec, err = containment.Contains(cand, e.q, e.set, e.opt.Containment)
	}
	if err != nil {
		return candVerdict{}, err
	}
	v := candVerdict{holds: dec.Holds, definitive: dec.Definitive}
	if e.memo != nil {
		e.memo[string(key)] = v
	}
	return v, nil
}
