package core

import (
	"errors"
	"sort"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// SearchComplete is layer 4: the paper's NP guess realized as a
// canonical enumeration of candidate CQs over the joint schema with at
// most `bound` atoms, pruned by homomorphism into a chase of q (a
// candidate without a pinned homomorphism into chase(q,Σ) cannot
// satisfy q ⊆Σ candidate, by Lemma 1). Acyclic candidates passing the
// pruning get a full equivalence verification.
//
// The enumeration is branch-decomposed: the top-level choices (first
// atom = predicate × canonical argument seed) become independent
// branches fanned across Options.Parallelism workers, with shared
// step/examined budgets and shared memoization of pruning and
// containment verdicts (see psearch.go). The witness is deterministic
// for every parallelism level: each branch yields its canonically first
// witness and the canonically least branch wins.
//
// Returns the witness (if any), the number of candidates examined, and
// whether the enumeration exhausted the search space definitively —
// which additionally requires the pruning chase to have been complete.
//
// Exported within the module so tests can drive layer 4 directly; the
// public facade does not re-export it.
//
// SearchComplete collects no observability counters. Use
// SearchCompleteStats to get the same answer plus an obs.Stats.
func SearchComplete(q *cq.CQ, set *deps.Set, opt Options, bound int) (*cq.CQ, int, bool, error) {
	opt = opt.withDefaults()
	w, examined, exhausted, err := searchComplete(q, set, newVerifier(q, set, opt), opt, bound, nil)
	return w, examined, exhausted, mapCancelled(err)
}

// SearchCompleteStats is SearchComplete with observability: it returns
// the identical witness/examined/exhausted answer (stats collection
// never influences the search; see the determinism contract in
// psearch.go) plus the run's counters. The returned Stats carries the
// chase, search and containment sections; Hom and Layers are left to
// Decide, which owns the process-wide delta and the pipeline view.
func SearchCompleteStats(q *cq.CQ, set *deps.Set, opt Options, bound int) (*cq.CQ, *obs.Stats, int, bool, error) {
	opt = opt.withDefaults()
	st := obs.NewStats()
	witness, examined, exhausted, err := searchComplete(q, set, newVerifier(q, set, opt), opt, bound, st)
	return witness, st, examined, exhausted, mapCancelled(err)
}

// searchComplete runs layer 4 with opt already defaulted; v supplies
// the decision's containment checker.
func searchComplete(q *cq.CQ, set *deps.Set, v *verifier, opt Options, bound int, st *obs.Stats) (*cq.CQ, int, bool, error) {
	sch, err := q.Schema().Union(set.Schema())
	if err != nil {
		return nil, 0, false, err
	}
	// The UCQ-rewritable classes have witness bounds of 2·f_C(q,Σ),
	// which can be astronomically beyond what exhaustive enumeration
	// can visit. Cap the explored depth unless the caller overrode the
	// bound explicitly; a capped run can still find witnesses but its
	// exhaustion is no longer definitive.
	capped := false
	if opt.MaxWitnessSize == 0 {
		if limit := 2*q.Size() + 4; bound > limit {
			bound = limit
			capped = true
		}
	}
	preds := sch.Predicates()
	sort.Slice(preds, func(i, j int) bool { return preds[i].Name < preds[j].Name })

	copt := opt.Containment.Chase
	if copt.MaxDepth <= 0 && copt.MaxSteps <= 0 {
		copt.MaxDepth = q.Size() + len(set.TGDs) + 2
		copt.MaxSteps = 2000
	}
	chSp := opt.Trace.Start("chase")
	chres, frozen, err := chase.Query(q, set, copt)
	chSp.End()
	if err != nil {
		if errors.Is(err, chase.ErrCancelled) {
			return nil, 0, false, err
		}
		// Failing egd chase: Lemma 1 does not apply (Decide handles
		// unsatisfiable queries before this layer); no claims here.
		return nil, 0, false, nil
	}
	if st != nil {
		st.Chase = chres.Stats
		st.Search.Bound = bound
		st.Search.Budget = opt.SearchBudget
	}

	// Pin the candidate's free variables to the frozen head tuple.
	pin := term.NewSubst()
	for i, x := range q.Free {
		if prev, ok := pin[x]; ok && prev != frozen[i] {
			if st != nil {
				st.Search.Exhausted = chres.Complete
				st.Search.Candidates = 0
			}
			return nil, 0, chres.Complete, nil
		}
		pin[x] = frozen[i]
	}

	eng := &searchEngine{
		q:      q,
		set:    set,
		opt:    opt,
		bound:  bound,
		preds:  preds,
		target: chres.Instance,
		pin:    pin,
		// Constants available to candidates: those of q and Σ.
		consts:   availableConstants(q, set),
		free:     append([]term.Term(nil), q.Free...),
		budget:   int64(opt.SearchBudget),
		maxSteps: 50 * int64(opt.SearchBudget),
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
	}
	witness, examined, exhausted, err := eng.run()
	if err != nil {
		return nil, examined, false, err
	}
	if witness != nil {
		return witness, examined, false, nil
	}
	exhausted = exhausted && chres.Complete && !capped
	if st != nil {
		// fillStats recorded the enumerator's own exhaustion; fold in the
		// chase-completeness and depth-cap conditions so the reported flag
		// matches the returned one.
		st.Search.Exhausted = exhausted
	}
	return nil, examined, exhausted, nil
}

// argumentPool lists the terms an atom argument may take: the query's
// free variables, canonical fresh variables s0..s_{nextVar+bound}, and
// the constants in scope. Fresh variables beyond nextVar are capped by
// canonical-introduction filtering in fill.
func argumentPool(free []term.Term, nextVar int, consts []term.Term, varName func(int) term.Term) []term.Term {
	pool := append([]term.Term(nil), free...)
	for i := 0; i < nextVar+maxFreshPerAtom; i++ {
		pool = append(pool, varName(i))
	}
	pool = append(pool, consts...)
	return pool
}

// maxFreshPerAtom bounds how many brand-new variables one atom may
// introduce; atoms have bounded arity so this equals the largest arity
// we enumerate, kept as a generous constant.
const maxFreshPerAtom = 6

func freshRank(t term.Term, nextVar int) (int, bool) {
	if !t.IsVar() || len(t.Name) < 2 || t.Name[0] != 's' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(t.Name); i++ {
		c := t.Name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n < nextVar {
		return 0, false // already-introduced variable: not fresh
	}
	return n - nextVar, true
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

// itoa is a tiny strconv.Itoa to keep hot paths allocation-obvious.
// Negative inputs are handled (the uint conversion of the negation is
// correct even for the minimum int, where -n wraps).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	un := uint(n)
	if neg {
		un = uint(-n)
	}
	var buf [21]byte
	i := len(buf)
	//semalint:allow cancelpoll(digit extraction; at most 20 iterations)
	for un > 0 {
		i--
		buf[i] = byte('0' + un%10)
		un /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
