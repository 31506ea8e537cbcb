package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// parallelism resolves Options.Parallelism: n>0 means exactly n
// workers, 0 (unset) means one worker per logical CPU.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// searchEngine is the shared state of one SearchComplete run: the
// read-only problem inputs plus the cross-branch coordination state
// (budgets, winner election, memoization caches).
//
// Determinism contract: branches are the top-level enumeration choices
// in canonical order. Every branch explores its subtree depth-first
// exactly as the sequential enumerator would and stops at its first
// witness; the winner is the witness of the least branch index whose
// canonical predecessors ALL completed, and a branch may be abandoned
// only when a strictly smaller branch has already produced a witness.
// Two mechanisms make the selected witness independent of worker count
// and scheduling even when the shared budget truncates the run:
//
//   - verification slots are reserved atomically (examined.Add before
//     the check), so exactly SearchBudget candidates are ever verified
//     — no scheduling-dependent overshoot; and
//   - a witness is suppressed when any earlier branch was truncated,
//     which is exactly when the sequential order might not have
//     reached it. If the prefix demand alone exceeds the budget, no
//     schedule can complete the prefix (slots are globally numbered),
//     so the suppression itself is schedule-independent.
//
// Consequence: for a fixed input and budget, every parallelism level
// returns the same witness or none; truncation can at worst turn a Yes
// into a (correct, non-definitive) miss, identically at every -j.
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

	// Shared budget pot, spent by all workers.
	steps    atomic.Int64
	examined atomic.Int64
	maxSteps int64
	budget   int64

	// bestBranch is the least branch index holding a witness so far
	// (math.MaxInt64 while none); branches above it abort early.
	bestBranch atomic.Int64

	// aborted stops every worker: user cancellation or a worker error.
	aborted atomic.Bool

	// Memoized verdicts shared across branches, keyed by
	// order-insensitive fingerprints so permuted prefixes and
	// isomorphic candidates hit. Both cached functions are pure, so a
	// hit returns exactly what recomputation would: caching cannot
	// change the search outcome, only its cost.
	pruneMemo sync.Map // atom-set fingerprint → bool (pinned hom into target exists)
	candMemo  sync.Map // candidate canonical key → candVerdict

	// checker is the prepared containment checker for the fixed
	// right-hand side q (nil when memoization is disabled, in which
	// case every verification re-derives the right-hand side).
	checker *containment.Prepared

	// st receives the run's observability counters; nil disables
	// collection entirely (the benchmarking baseline). Shared counters
	// are aggregated per branch in a local branchStats and flushed with
	// a handful of atomic adds when the branch ends, so the enumeration
	// hot loop pays plain increments only.
	st             *obs.Stats
	prunedByHom    atomic.Int64
	verified       atomic.Int64
	indefinite     atomic.Int64
	pruneHits      atomic.Int64
	pruneMisses    atomic.Int64
	candHits       atomic.Int64
	candMisses     atomic.Int64
	workerBranches []int64 // one slot per worker, written only by its owner
}

// branchStats accumulates one branch's counters locally; flush moves
// them to the engine aggregates in O(1) atomic operations.
type branchStats struct {
	pruned, pruneHits, pruneMisses int64
	candHits, candMisses           int64
	verified, indefinite           int64
}

func (e *searchEngine) flush(bs *branchStats) {
	if e.st == nil {
		return
	}
	e.prunedByHom.Add(bs.pruned)
	e.pruneHits.Add(bs.pruneHits)
	e.pruneMisses.Add(bs.pruneMisses)
	e.candHits.Add(bs.candHits)
	e.candMisses.Add(bs.candMisses)
	e.verified.Add(bs.verified)
	e.indefinite.Add(bs.indefinite)
}

// pruneMemoMinTarget is the chase-target size below which the pinned
// homomorphism test is assumed cheaper than the canonical-key
// memoization that would cache it.
const pruneMemoMinTarget = 16

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

// branchOutcome is what one branch reports back.
type branchOutcome struct {
	witness  *cq.CQ
	complete bool // subtree fully enumerated: no truncation, no indefinite verdicts
	examined int  // verification slots this branch was granted (deterministic per branch)
	err      error
}

func searchVarName(i int) term.Term { return term.Var("s" + itoa(i)) }

// seedBranches enumerates the first-atom choices in the exact order the
// sequential enumerator visits them: predicates in name order, argument
// tuples in canonical-introduction order.
func (e *searchEngine) seedBranches() []branch {
	if e.bound <= 0 {
		return nil
	}
	var out []branch
	for _, p := range e.preds {
		pool := argumentPool(e.free, 0, e.consts, searchVarName)
		args := make([]term.Term, p.Arity)
		var fill func(pos, maxNew int)
		fill = func(pos, maxNew int) {
			if pos == p.Arity {
				out = append(out, branch{atom: instance.NewAtom(p.Name, args...), nextVar: maxNew})
				return
			}
			for _, t := range pool {
				// Canonical introduction: a fresh variable may only be
				// used if all earlier fresh ranks are in use.
				rank, fresh := freshRank(t, 0)
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

// run fans the branches across the worker pool and elects the winner.
func (e *searchEngine) run() (*cq.CQ, int, bool, error) {
	e.bestBranch.Store(math.MaxInt64)
	branches := e.seedBranches()
	outcomes := make([]branchOutcome, len(branches))
	for i := range outcomes {
		outcomes[i].complete = true // branches never started count as skipped below
	}

	workers := e.opt.parallelism()
	if workers > len(branches) {
		workers = len(branches)
	}
	if e.st != nil {
		e.st.Search.Branches = len(branches)
		e.st.Search.Workers = workers
		e.workerBranches = make([]int64, workers)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(branches) {
					return
				}
				if e.workerBranches != nil {
					e.workerBranches[w]++
				}
				switch {
				case e.aborted.Load():
					outcomes[idx] = branchOutcome{complete: false}
				case e.bestBranch.Load() < int64(idx):
					// A canonically earlier branch already holds the
					// winner; this branch cannot win.
					outcomes[idx] = branchOutcome{complete: false}
				default:
					oc := e.runBranch(idx, branches[idx])
					if oc.witness != nil {
						for {
							cur := e.bestBranch.Load()
							if int64(idx) >= cur || e.bestBranch.CompareAndSwap(cur, int64(idx)) {
								break
							}
						}
					}
					if oc.err != nil {
						e.aborted.Store(true)
					}
					outcomes[idx] = oc
				}
			}
		}(w)
	}
	wg.Wait()

	// Examined = verifications actually performed: reservations beyond
	// the budget were refused.
	examined := int(e.examined.Load())
	if examined > int(e.budget) {
		examined = int(e.budget)
	}
	for _, oc := range outcomes {
		if oc.err != nil {
			// Abort path (cancellation or a worker error): every branch
			// has flushed its local counters (the flush is deferred in
			// runBranch), so fill the stats before returning — with the
			// deterministic fields at their "not defined" sentinels,
			// because a truncated run has no reconstructible sequential
			// prefix. This keeps a cancelled run's partial Stats (and
			// the process-global obs counters) consistent instead of
			// dropping the buffered flushes.
			e.fillStats(examined, -1, -1, false)
			return nil, examined, false, oc.err
		}
	}
	// Deterministic winner election: scan in canonical order; the first
	// witness wins, but the scan stops at the first truncated branch —
	// a witness beyond it is one the sequential order might never have
	// reached, so claiming it would make the answer depend on
	// scheduling. (The suppressed witness was still verified; the run
	// just reports a non-exhaustive miss, identically at every -j.)
	//
	// The scan also accumulates the DETERMINISTIC decisive-candidate
	// count: the verifications the sequential order performs up to the
	// decision point. A returned witness at branch w implies branches
	// < w completed (their per-branch counts are schedule-free) and
	// branch w stopped depth-first at its first witness (its prefix
	// count is schedule-free too — an earlier refusal in the branch
	// would have emptied the shared pot and refused the witness as
	// well). An exhausted run completed every branch. A truncated
	// no-witness run has no reconstructible sequential prefix: -1.
	decisive := 0
	for i, oc := range outcomes {
		if oc.witness != nil {
			decisive += oc.examined
			e.fillStats(examined, decisive, i, false)
			return oc.witness, examined, false, nil
		}
		if !oc.complete {
			e.fillStats(examined, -1, -1, false)
			return nil, examined, false, nil
		}
		decisive += oc.examined
	}
	e.fillStats(examined, decisive, -1, true)
	return nil, examined, true, nil
}

// fillStats writes the run's counters into the attached obs.Stats.
func (e *searchEngine) fillStats(examined, decisive, winner int, exhausted bool) {
	if e.st == nil {
		return
	}
	s := &e.st.Search
	s.Bound = e.bound
	s.Budget = int(e.budget)
	s.WinnerBranch = winner
	s.Exhausted = exhausted
	s.Candidates = decisive
	s.CandidatesObserved = examined
	s.NodesVisited = e.steps.Load()
	s.PrunedByHom = e.prunedByHom.Load()
	s.Verified = e.verified.Load()
	s.Indefinite = e.indefinite.Load()
	s.PruneMemoHits = e.pruneHits.Load()
	s.PruneMemoMisses = e.pruneMisses.Load()
	s.CandMemoHits = e.candHits.Load()
	s.CandMemoMisses = e.candMisses.Load()
	s.WorkerBranches = e.workerBranches
	c := &e.st.Containment
	if e.checker != nil {
		c.Method = string(e.checker.SelectedMethod())
		c.RewriteDisjuncts, c.RewriteComplete = e.checker.RewriteSize()
		c.PreparedChecks = e.checker.Checks()
	} else {
		c.Method = string(containment.SelectMethod(e.set, e.opt.Containment))
		c.RewriteDisjuncts = -1 // no prepared rewriting (memo disabled)
	}
	obs.SearchRuns.Add(1)
	obs.SearchCandidates.Add(int64(examined))
}

// runBranch explores one branch's subtree depth-first, mirroring the
// sequential enumerator node for node: prune by (memoized) pinned
// homomorphism into chase(q,Σ), verify acyclic survivors by (memoized)
// containment, extend canonically up to the bound.
func (e *searchEngine) runBranch(idx int, b branch) (out branchOutcome) {
	out.complete = true
	var bs branchStats
	defer e.flush(&bs)

	// tryCandidate verifies a complete candidate. The enumeration
	// pruning has already certified q ⊆Σ cand — the candidate has a
	// pinned homomorphism into chase(q,Σ), which by Lemma 1 is exactly
	// that containment (sound even on a chase prefix) — so only the
	// converse direction needs checking here.
	tryCandidate := func(atoms []instance.Atom) (bool, error) {
		cand := &cq.CQ{Name: e.q.Name, Free: e.free, Atoms: cloneAtoms(atoms)}
		if err := cand.Validate(); err != nil {
			return false, nil
		}
		if !hypergraph.IsAcyclic(cand.Atoms) {
			return false, nil
		}
		// Reserve a verification slot. Slots are globally numbered, so
		// exactly budget candidates are verified under any schedule —
		// the winner election above relies on this exactness.
		if e.examined.Add(1) > e.budget {
			out.complete = false
			return false, nil
		}
		out.examined++
		v, err := e.verifyMemo(cand, &bs)
		if err != nil {
			return false, err
		}
		if v.holds {
			out.witness = cand.Clone()
			return true, nil
		}
		if !v.definitive {
			out.complete = false
			bs.indefinite++
		}
		return false, nil
	}

	var extend func(atoms []instance.Atom, nextVar int) (bool, error)
	extend = func(atoms []instance.Atom, nextVar int) (bool, error) {
		// Strict > on the examined pot: the counter exceeds the budget
		// only after a reservation was refused somewhere, so this early
		// stop never fires on a schedule where no truncation happened —
		// keeping the complete/exhausted flags schedule-independent in
		// the claiming direction.
		steps := e.steps.Add(1)
		if steps > e.maxSteps || e.examined.Load() > e.budget {
			out.complete = false
			return false, nil
		}
		if steps%256 == 0 {
			if e.opt.cancelled() {
				// Flag the shared abort immediately (not only when this
				// branch's outcome lands) so sibling workers stop at
				// their next poll rather than at branch granularity.
				e.aborted.Store(true)
				return false, ErrCancelled
			}
			if e.aborted.Load() || e.bestBranch.Load() < int64(idx) {
				out.complete = false
				return false, nil
			}
		}
		// Prune: q ⊆Σ candidate requires a pinned homomorphism of the
		// candidate into chase(q,Σ).
		if !e.pinnedHomExists(atoms, &bs) {
			bs.pruned++
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
		for _, p := range e.preds {
			pool := argumentPool(e.free, nextVar, e.consts, searchVarName)
			args := make([]term.Term, p.Arity)
			var fill func(pos, maxNew int) (bool, error)
			fill = func(pos, maxNew int) (bool, error) {
				if pos == p.Arity {
					atom := instance.NewAtom(p.Name, args...)
					if containsAtom(atoms, atom) {
						return false, nil
					}
					return extend(append(atoms, atom), nextVar+maxNew)
				}
				for _, t := range pool {
					// Canonical introduction: a fresh variable may only
					// be used if all earlier fresh ranks are in use.
					rank, fresh := freshRank(t, nextVar)
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

	if _, err := extend([]instance.Atom{b.atom}, b.nextVar); err != nil {
		out.err = err
	}
	return out
}

// pinnedHomExists reports whether the prefix maps homomorphically into
// chase(q,Σ) with the free variables pinned, memoized on the prefix's
// renaming-invariant canonical key. Invariance class: the verdict only
// depends on the prefix up to renaming of existential variables (free
// variables are pinned, and CanonicalKey keeps them fixed), and the
// canonical-introduction enumeration produces each atom set under
// essentially one naming — so the hits that matter come from
// isomorphic prefixes in sibling subtrees, which an order-insensitive
// but renaming-sensitive fingerprint would all miss.
func (e *searchEngine) pinnedHomExists(atoms []instance.Atom, bs *branchStats) bool {
	// The memo key (a canonical form) costs about as much as the
	// homomorphism test it avoids when the target chase is small or the
	// prefix short — and short prefixes have the fewest isomorphic
	// duplicates anyway. Memoize only where the avoided search is the
	// expensive side.
	if e.opt.DisableSearchMemo || len(atoms) < 3 || e.target.Len() < pruneMemoMinTarget {
		return hom.Exists(atoms, e.target, e.pin)
	}
	prefix := cq.CQ{Name: e.q.Name, Free: e.free, Atoms: atoms}
	fp := prefix.CanonicalKey()
	if v, ok := e.pruneMemo.Load(fp); ok {
		bs.pruneHits++
		return v.(bool)
	}
	bs.pruneMisses++
	ok := hom.Exists(atoms, e.target, e.pin)
	e.pruneMemo.Store(fp, ok)
	return ok
}

// verifyMemo runs the candidate's containment check, memoized on the
// candidate's renaming-invariant canonical key so the up-to-k!
// permutations of a k-atom candidate pay for one chase-based
// verification between them.
func (e *searchEngine) verifyMemo(cand *cq.CQ, bs *branchStats) (candVerdict, error) {
	var key string
	if !e.opt.DisableSearchMemo {
		key = cand.CanonicalKey()
		if v, ok := e.candMemo.Load(key); ok {
			bs.candHits++
			return v.(candVerdict), nil
		}
		bs.candMisses++
	}
	bs.verified++
	var dec containment.Decision
	var err error
	if e.checker != nil {
		dec, err = e.checker.Check(cand)
	} else {
		dec, err = containment.Contains(cand, e.q, e.set, e.opt.Containment)
	}
	if err != nil {
		return candVerdict{}, err
	}
	v := candVerdict{holds: dec.Holds, definitive: dec.Definitive}
	if !e.opt.DisableSearchMemo {
		e.candMemo.Store(key, v)
	}
	return v, nil
}
