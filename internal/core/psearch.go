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
// scratch every branch reuses.
//
// Determinism contract: the branches are the top-level enumeration
// choices in canonical order. The search walks them in that order, each
// depth-first, and stops at the first witness. It returns the witness
// only when every earlier branch was enumerated completely: a branch
// that the budget or an indefinite verdict truncated may hide an earlier
// witness, so a witness after it is discarded and the run reports a
// non-exhaustive miss. A truncated branch does not end the walk: the
// later branches still run until the budget is spent or a witness
// turns up, and their verifications count in the examined total.
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
	names  []term.Term // fresh variables (freshNames) named so far

	// The budget: steps counts enumeration nodes, examined the
	// verifications granted. starved records a refused verification,
	// after which the enumeration stops.
	steps    int64
	maxSteps int64
	examined int
	budget   int
	starved  bool

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
	// argSlab[d*maxArity:] from the argument pool pools[d] (level 0 is
	// the branch's seed). The scratch grows as the search first enters a
	// level, so it follows the depth reached, not the bound. A level's
	// buffers change only after the extension below it returns, and a
	// buffer that grows leaves the atoms already built in its old array.
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

// branch is one top-level enumeration choice: the candidate's first
// atom and the fresh-variable watermark after it.
type branch struct {
	atom    instance.Atom
	nextVar int
}

func searchVarName(i int) term.Term { return term.Var("s" + itoa(i)) }

// argumentPool appends to dst the terms an atom argument may take: the
// query's free variables, the canonical fresh variables in names
// (the first nextVar+maxFreshPerAtom of freshNames), and the constants
// in scope. Fresh variables beyond nextVar are capped by
// canonical-introduction filtering in fill, which reads a term's rank
// from its position (freshRank).
func (e *searchEngine) argumentPool(dst, names []term.Term) []term.Term {
	dst = append(dst, e.free...)
	dst = append(dst, names...)
	return append(dst, e.consts...)
}

// seedBranches enumerates the first-atom choices in the exact order the
// enumerator visits them: predicates in name order, argument tuples in
// canonical-introduction order.
func (e *searchEngine) seedBranches() []branch {
	if e.bound <= 0 {
		return nil
	}
	var out []branch
	for _, p := range e.preds {
		pool := e.argumentPool(nil, e.names[:maxFreshPerAtom])
		args := make([]term.Term, p.Arity)
		var fill func(pos, maxNew int)
		fill = func(pos, maxNew int) {
			if pos == p.Arity {
				out = append(out, branch{atom: instance.NewAtom(p.Name, args...), nextVar: maxNew})
				return
			}
			for j, t := range pool {
				// Canonical introduction: a fresh variable may only be
				// used if all earlier fresh ranks are in use.
				rank, fresh := e.freshRank(j, 0)
				if fresh && rank > maxNew {
					continue
				}
				newMax := maxNew
				if fresh && rank == maxNew {
					newMax = maxNew + 1
				}
				args[pos] = t
				fill(pos+1, newMax)
			}
		}
		fill(0, 0)
	}
	return out
}

// run walks the branches in canonical order and returns the witness,
// the number of verifications granted, and whether every branch was
// enumerated completely.
func (e *searchEngine) run() (*cq.CQ, int, bool, error) {
	branches := e.seedBranches()
	e.st.Search.Branches = len(branches)
	for _, p := range e.preds {
		e.maxArity = max(e.maxArity, p.Arity)
	}
	complete := true // every branch walked so far was enumerated completely
	for i, b := range branches {
		w, done, err := e.runBranch(b)
		if err != nil {
			// Cancellation or a failed check: the deterministic fields
			// keep their "not defined" sentinels, so a partial record
			// never passes for a completed run's.
			e.fillStats(-1, -1, false)
			return nil, e.examined, false, err
		}
		if w != nil {
			if !complete {
				break // a truncated branch before it may hide an earlier witness
			}
			e.fillStats(e.examined, i, false)
			return w, e.examined, false, nil
		}
		complete = complete && done
	}
	if !complete {
		e.fillStats(-1, -1, false)
		return nil, e.examined, false, nil
	}
	e.fillStats(e.examined, -1, true)
	return nil, e.examined, true, nil
}

// fillStats writes the run's counters into the attached obs.Stats.
// decisive is the verifications up to the decision point, -1 when the
// run was truncated without a witness.
func (e *searchEngine) fillStats(decisive, winner int, exhausted bool) {
	s := &e.st.Search
	s.Bound = e.bound
	s.Budget = e.budget
	s.WinnerBranch = winner
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

// runBranch explores one branch's subtree depth-first: prune by pinned
// homomorphism into chase(q,Σ), verify acyclic survivors by (memoized)
// containment, extend canonically up to the bound. Candidates are
// prefixes of the engine's atom stack whose extension atoms live in
// each level's argument buffer; nothing that prunes, keys or verifies a
// prefix keeps it, so only the witness is copied. complete reports that
// the subtree was enumerated without truncation or indefinite verdicts.
func (e *searchEngine) runBranch(b branch) (witness *cq.CQ, complete bool, err error) {
	complete = true

	// tryCandidate verifies a complete candidate. The enumeration
	// pruning has already certified q ⊆Σ cand — the candidate has a
	// pinned homomorphism into chase(q,Σ), which by Lemma 1 is exactly
	// that containment (sound even on a chase prefix) — so only the
	// converse direction needs checking here.
	tryCandidate := func(atoms []instance.Atom) (bool, error) {
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
			complete = false
			return false, nil
		}
		e.examined++
		v, err := e.verify(&cand)
		if err != nil {
			return false, err
		}
		if v.holds {
			witness = cand.Clone()
			return true, nil
		}
		if !v.definitive {
			complete = false
			e.indefinite++
		}
		return false, nil
	}

	var extend func(atoms []instance.Atom, nextVar int) (bool, error)
	extend = func(atoms []instance.Atom, nextVar int) (bool, error) {
		e.steps++
		if e.steps > e.maxSteps || e.starved {
			complete = false
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
		if done, err := tryCandidate(atoms); err != nil || done {
			return done, err
		}
		if len(atoms) >= e.bound {
			return false, nil
		}
		// Extend with one atom over each predicate; arguments drawn from
		// free variables, variables used so far, one fresh variable rank
		// beyond, and the available constants.
		d := len(atoms)
		if len(e.pools) <= d {
			e.pools = append(e.pools, make([][]term.Term, d+1-len(e.pools))...)
			e.argSlab = append(e.argSlab, make([]term.Term, (d+1)*e.maxArity-len(e.argSlab))...)
		}
		e.names = freshNames(e.names, e.free, nextVar+maxFreshPerAtom)
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
					return extend(e.stack, nextVar+maxNew)
				}
				for j, t := range pool {
					// Canonical introduction: a fresh variable may only
					// be used if all earlier fresh ranks are in use.
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

	e.stack = append(e.stack[:0], b.atom)
	_, err = extend(e.stack, b.nextVar)
	return witness, complete, err
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
