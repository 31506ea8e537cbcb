// Package rewrite implements UCQ rewriting of conjunctive queries under
// tgds (Definition 2 of the paper): backward piece-rewriting in the
// style of XRewrite [Gottlob–Orsi–Pieris, TODS 2014], the technique the
// paper leans on for non-recursive and sticky sets of tgds
// (Propositions 17 and 19).
//
// A rewriting step undoes one chase application: a nonempty subset S of
// a query's atoms is unified with (a subset of) a tgd's head atoms by a
// most general unifier satisfying the piece conditions on existential
// variables, and S is replaced by the tgd's body. The closure of q
// under such steps is a UCQ Q with: q' ⊆Σ q iff c(x̄) ∈ Q(D_q').
// Answer variables are treated as rigid (frozen) during unification,
// the standard convention that keeps the head tuple stable across
// disjuncts.
package rewrite

import (
	"errors"
	"fmt"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// ErrCancelled reports a rewriting aborted via Options.Cancel.
var ErrCancelled = errors.New("rewrite: cancelled")

// Options bounds the rewriting closure. The zero value picks defaults
// that comfortably cover the f_C(q,Σ) bounds on laptop-scale inputs.
type Options struct {
	// MaxDisjuncts caps the number of generated CQs (default 100000).
	MaxDisjuncts int
	// MaxAtomsPerCQ discards rewritings larger than this (default: no
	// limit). The paper's small-query property never needs disjuncts
	// above f_C(q,Σ); callers may pass that bound to prune.
	MaxAtomsPerCQ int
	// MaxRounds caps the BFS depth (default 10000 — effectively the
	// disjunct cap governs).
	MaxRounds int
	// Cancel, when non-nil, aborts the closure as soon as the channel
	// is closed (or receives); Rewrite then returns ErrCancelled. The
	// channel is polled once per (disjunct, tgd) rewriting step, so a
	// diverging sticky closure stops within one piece-rewriting step.
	Cancel <-chan struct{}
}

// cancelled polls the cancel channel without blocking.
func (o Options) cancelled() bool {
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

func (o Options) withDefaults() Options {
	if o.MaxDisjuncts <= 0 {
		o.MaxDisjuncts = 100000
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10000
	}
	return o
}

// Result is a computed rewriting.
type Result struct {
	// UCQ is the rewriting; the first disjunct is (a canonical copy of)
	// the input query itself.
	UCQ *cq.UCQ
	// Complete reports that the closure was exhausted within budget.
	// When false, the rewriting is still sound (every disjunct is
	// Σ-entailed) but may be missing disjuncts.
	Complete bool
	// Rounds is the number of BFS levels explored.
	Rounds int
}

// Rewrite computes the UCQ rewriting of q under the tgds of the set.
// Sets containing egds are rejected: the paper shows keys are not UCQ
// rewritable (Section 6.1).
func Rewrite(q *cq.CQ, set *deps.Set, opt Options) (*Result, error) {
	if len(set.EGDs) > 0 {
		return nil, fmt.Errorf("rewrite: egds are not UCQ rewritable")
	}
	opt = opt.withDefaults()

	start := hom.Core(q.DedupAtoms())
	seen := map[string]*cq.CQ{start.CanonicalKey(): start}
	frontier := []*cq.CQ{start}
	order := []*cq.CQ{start}
	complete := true
	rounds := 0

	for len(frontier) > 0 && rounds < opt.MaxRounds {
		rounds++
		var next []*cq.CQ
		for _, p := range frontier {
			for _, t := range set.TGDs {
				if opt.cancelled() {
					return nil, ErrCancelled
				}
				for _, r := range rewriteStep(p, t) {
					if opt.MaxAtomsPerCQ > 0 && r.Size() > opt.MaxAtomsPerCQ {
						complete = false
						continue
					}
					// Core-reduce: each disjunct is replaced by its
					// (equivalent) core. Besides shrinking the UCQ this
					// is what makes the closure terminate on recursive
					// sticky sets, where raw piece-rewriting keeps
					// producing redundant inflations of earlier
					// disjuncts.
					r = hom.Core(r)
					k := r.CanonicalKey()
					if _, ok := seen[k]; ok {
						continue
					}
					if len(seen) >= opt.MaxDisjuncts {
						complete = false
						continue
					}
					seen[k] = r
					next = append(next, r)
					order = append(order, r)
				}
			}
		}
		frontier = next
	}
	if len(frontier) > 0 {
		complete = false
	}
	ucq, err := cq.NewUCQ(order...)
	if err != nil {
		return nil, fmt.Errorf("rewrite: internal: %w", err)
	}
	return &Result{UCQ: ucq, Complete: complete, Rounds: rounds}, nil
}

// rewriteStep returns every sound one-step rewriting of p with tgd t.
func rewriteStep(p *cq.CQ, t *deps.TGD) []*cq.CQ {
	t = t.RenameApart()

	// Freeze answer variables: rigid during unification.
	freeze := term.NewSubst()
	thaw := term.NewSubst()
	for _, x := range p.Free {
		fc := cq.FrozenConst(x)
		freeze[x] = fc
		thaw[fc] = x
	}
	frozen := p.ApplySubst(freeze)

	existential := t.ExistentialVars()
	frontier := t.FrontierVars()
	pVars := varSet(frozen.Atoms)

	var out []*cq.CQ

	// Enumerate assignments: each atom of p is either kept or mapped to
	// a head atom of t with matching predicate and arity.
	assign := make([]int, len(frozen.Atoms)) // -1 = keep, else head index
	var rec func(i int, any bool)
	rec = func(i int, any bool) {
		if i == len(frozen.Atoms) {
			if !any {
				return
			}
			if r := applyPiece(frozen, t, assign, existential, frontier, pVars, thaw, p.Free); r != nil {
				out = append(out, r)
			}
			return
		}
		assign[i] = -1
		rec(i+1, any)
		for j, h := range t.Head {
			if h.Pred == frozen.Atoms[i].Pred && len(h.Args) == len(frozen.Atoms[i].Args) {
				assign[i] = j
				rec(i+1, true)
			}
		}
		assign[i] = -1
	}
	rec(0, false)
	return out
}

// applyPiece attempts the piece unification described by assign and, on
// success, returns the rewritten query.
func applyPiece(frozen *cq.CQ, t *deps.TGD, assign []int,
	existential, frontierVars []term.Term, pVars map[term.Term]bool,
	thaw term.Subst, free []term.Term) *cq.CQ {

	// Collect the unification problem.
	var left, right []term.Term
	inS := make([]bool, len(frozen.Atoms))
	for i, a := range frozen.Atoms {
		if assign[i] < 0 {
			continue
		}
		inS[i] = true
		left = append(left, a.Args...)
		right = append(right, t.Head[assign[i]].Args...)
	}
	mu, err := term.Unify(left, right, nil)
	if err != nil {
		return nil
	}

	// Variables of p occurring outside S (they must keep their values,
	// so they may not be equated with an existential variable).
	outside := make(map[term.Term]bool)
	for i, a := range frozen.Atoms {
		if inS[i] {
			continue
		}
		for _, v := range a.Vars() {
			outside[v] = true
		}
	}

	// Piece conditions on each existential variable z of t: its
	// equivalence class must contain nothing but z itself and variables
	// of p that occur only inside S.
	for _, z := range existential {
		rz := mu.Resolve(z)
		if rz.IsConst() {
			return nil // null cannot equal a constant (incl. frozen answer vars)
		}
		if rz != z {
			// rz is a variable: it must be an S-only p-variable, not a
			// frontier variable, not another existential.
			if !pVars[rz] || outside[rz] {
				return nil
			}
		}
		// No two distinct existential variables may coincide, and no
		// frontier variable may land in z's class.
		for _, z2 := range existential {
			if z2 != z && mu.Resolve(z2) == rz {
				return nil
			}
		}
		for _, f := range frontierVars {
			if mu.Resolve(f) == rz {
				return nil
			}
		}
		// No outside-S p-variable may resolve into z's class.
		//semalint:allow detmap(existence check; any hit rejects identically)
		for v := range outside {
			if mu.Resolve(v) == rz {
				return nil
			}
		}
	}

	// Build the rewriting: μ(body(t)) ∪ μ(p \ S), then thaw answer vars.
	var atoms []instance.Atom
	for _, b := range t.Body {
		atoms = append(atoms, b.Apply(mu).Apply(thaw))
	}
	for i, a := range frozen.Atoms {
		if !inS[i] {
			atoms = append(atoms, a.Apply(mu).Apply(thaw))
		}
	}
	r := &cq.CQ{Name: frozen.Name, Free: append([]term.Term(nil), free...), Atoms: atoms}
	r = r.DedupAtoms()
	if err := r.Validate(); err != nil {
		return nil // defensive: a free variable vanished (cannot happen)
	}
	return r
}

func varSet(atoms []instance.Atom) map[term.Term]bool {
	s := make(map[term.Term]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			s[v] = true
		}
	}
	return s
}

// HeightBound returns f_C(q,Σ) = p_{q,Σ} · (a_{q,Σ}·|q| + 1)^{a_{q,Σ}},
// the bound on the maximal disjunct size of UCQ rewritings for
// non-recursive and sticky sets (Propositions 17 and 19).
func HeightBound(q *cq.CQ, set *deps.Set) int {
	sch, err := q.Schema().Union(set.Schema())
	if err != nil {
		// Inconsistent arities between query and set: fall back to the
		// set's schema, which dominates rewriting output.
		sch = set.Schema()
	}
	p := sch.Len()
	a := sch.MaxArity()
	if a == 0 {
		return p
	}
	// Clamp: the bound is only used to size budgets; beyond ~10^9 the
	// exact value is meaningless and the multiplication could overflow.
	const clamp = 1 << 30
	bound := p
	base := a*q.Size() + 1
	for i := 0; i < a; i++ {
		if bound > clamp/base {
			return clamp
		}
		bound *= base
	}
	return bound
}
