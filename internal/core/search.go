package core

import (
	"errors"
	"slices"
	"sort"
	"strconv"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// SearchComplete is layer 4: the paper's NP guess realized as a
// canonical enumeration of candidate CQs over the joint schema with at
// most `bound` atoms, pruned by homomorphism into a chase of q (a
// candidate without a pinned homomorphism into chase(q,Σ) cannot
// satisfy q ⊆Σ candidate, by Lemma 1). Acyclic candidates passing the
// pruning get a full equivalence verification.
//
// The enumeration is one depth-first walk from the empty candidate in
// canonical order under one step and verification budget, with
// memoized containment verdicts (see psearch.go).
//
// Returns the witness (if any), the run's stats, the number of
// candidates examined, and whether the enumeration exhausted the search
// space definitively — which additionally requires the pruning chase to
// have been complete.
//
// Exported within the module so tests can drive layer 4 directly; the
// public facade does not re-export it. The returned Stats carries the
// run's chase, search and containment sections (collection never
// influences the search); Hom and Layers are left to Decide, which owns
// the process-wide delta and the pipeline view.
func SearchComplete(q *cq.CQ, set *deps.Set, opt Options, bound int) (*cq.CQ, *obs.Stats, int, bool, error) {
	opt = opt.withDefaults()
	st := obs.NewStats()
	v := newVerifier(q, set, opt)
	witness, examined, exhausted, err := searchComplete(q, set, v, opt, bound, st)
	v.recordChecks(st)
	return witness, st, examined, exhausted, err
}

// searchComplete runs layer 4 with opt already defaulted; v supplies
// the decision's chase of q and containment checker.
func searchComplete(q *cq.CQ, set *deps.Set, v *verifier, opt Options, bound int, st *obs.Stats) (*cq.CQ, int, bool, error) {
	sch, err := q.Schema().Union(set.Schema())
	if err != nil {
		return nil, 0, false, err
	}
	// The UCQ-rewritable classes have witness bounds of 2·f_C(q,Σ),
	// which can be astronomically beyond what exhaustive enumeration
	// can visit. Cap the explored depth at 2|q|+4; a capped run can
	// still find witnesses but its exhaustion is no longer definitive.
	limit := 2*q.Size() + 4
	capped := bound > limit
	if capped {
		bound = limit
	}
	preds := sch.Predicates()
	sort.Slice(preds, func(i, j int) bool { return preds[i].Name < preds[j].Name })
	// A candidate extended below depth d has introduced fewer than
	// d·arity fresh variables, and its pool names maxFreshPerAtom beyond
	// them, so the walk names every fresh variable it can use up front.
	names := freshNames(q.Free, max(bound, 0)*sch.MaxArity()+maxFreshPerAtom)

	chres, frozen, err := v.chaseQuery()
	if err != nil {
		if errors.Is(err, stop.ErrCancelled) {
			return nil, 0, false, err
		}
		// Failing egd chase: Lemma 1 does not apply (Decide handles
		// unsatisfiable queries before this layer); no claims here.
		return nil, 0, false, nil
	}
	st.Chase = chres.Stats
	st.Search.Bound = bound
	st.Search.Budget = opt.SearchBudget

	// Pin the candidate's free variables to the frozen head tuple.
	pin := term.NewSubst()
	for i, x := range q.Free {
		if prev, ok := pin[x]; ok && prev != frozen[i] {
			st.Search.Exhausted = chres.Complete
			st.Search.Candidates = 0
			return nil, 0, chres.Complete, nil
		}
		pin[x] = frozen[i]
	}

	eng := &searchEngine{
		q:      q,
		set:    set,
		opt:    v.opt, // opt with the containment method resolved
		bound:  bound,
		preds:  preds,
		target: chres.Instance,
		pin:    pin,
		// Constants available to candidates: those of q and Σ.
		consts:   availableConstants(q, set),
		free:     append([]term.Term(nil), q.Free...),
		names:    names,
		budget:   opt.SearchBudget,
		maxSteps: 50 * int64(opt.SearchBudget),
		runner:   &v.runner,
		st:       st,
	}
	if !opt.DisableSearchMemo {
		// Gated with the memo flag so the reference arm re-derives the
		// right-hand side per candidate, as the unoptimized search did.
		checker, err := v.prepared()
		if err != nil {
			return nil, 0, false, err
		}
		eng.checker = checker
		eng.memo = make(map[string]candVerdict)
	}
	witness, examined, exhausted, err := eng.run()
	if err != nil {
		return nil, examined, false, err
	}
	if witness != nil {
		return witness, examined, false, nil
	}
	exhausted = exhausted && chres.Complete && !capped
	// fillStats recorded the enumerator's own exhaustion; fold in the
	// chase-completeness and depth-cap conditions so the reported flag
	// matches the returned one.
	st.Search.Exhausted = exhausted
	return nil, examined, exhausted, nil
}

// maxFreshPerAtom bounds how many brand-new variables one atom may
// introduce; atoms have bounded arity so this equals the largest arity
// we enumerate, kept as a generous constant.
const maxFreshPerAtom = 6

// freshNames returns n fresh variable names: the i-th is the i-th of
// s0, s1, … that names no free variable, so a fresh variable never
// stands for a free one.
func freshNames(free []term.Term, n int) []term.Term {
	names := make([]term.Term, 0, n)
	for i := 0; len(names) < n; i++ {
		if v := term.Var("s" + strconv.Itoa(i)); !slices.Contains(free, v) {
			names = append(names, v)
		}
	}
	return names
}

// freshRank reports whether position j of an argument pool that
// argumentPool built with names[:nextVar+maxFreshPerAtom] holds a fresh
// variable, and its rank beyond nextVar. The pool lists the free
// variables, then the names, then the constants, so the position alone
// decides, whatever the terms are named.
func (e *searchEngine) freshRank(j, nextVar int) (int, bool) {
	rank := j - len(e.free) - nextVar
	return rank, rank >= 0 && rank < maxFreshPerAtom
}

func containsAtom(atoms []instance.Atom, a instance.Atom) bool {
	for _, b := range atoms {
		if b.Equal(a) {
			return true
		}
	}
	return false
}

func availableConstants(q *cq.CQ, set *deps.Set) []term.Term {
	seen := make(map[term.Term]bool)
	var out []term.Term
	add := func(atoms []instance.Atom) {
		for _, a := range atoms {
			for _, t := range a.Args {
				if t.IsConst() && !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
	}
	add(q.Atoms)
	for _, t := range set.TGDs {
		add(t.Body)
		add(t.Head)
	}
	for _, e := range set.EGDs {
		add(e.Body)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
