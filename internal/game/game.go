// Package game implements the existential 1-cover game of Chen–Dalmau
// as characterized by Lemma 28 of the paper: the duplicator has a
// winning strategy on (I, t̄) and (I', t̄') iff a family H assigning to
// each atom of I a nonempty set of consistently-overlapping images in
// I' exists. The winning strategy is computed by an arc-consistency
// fixpoint, in polynomial time (Proposition 29).
//
// Theorem 25 uses the game to evaluate semantically acyclic CQs under
// guarded tgds in polynomial time without computing the acyclic
// reformulation: t̄ ∈ q(D) iff (q, x̄) ≡∃1c (D, t̄).
package game

import (
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// Options tunes the cancellable entry points. The zero value means no
// cancellation.
type Options struct {
	// Cancel, when non-nil, aborts the evaluation as soon as the
	// channel is closed; the entry point then returns
	// stop.ErrCancelled.
	// Polled once per arc-consistency sweep and once per candidate
	// tuple of the enumeration, so latency is bounded by one fixpoint
	// sweep, not a whole answer enumeration.
	Cancel <-chan struct{}
}

// flexibleElem reports whether a pattern term is an element the
// duplicator may map freely: variables, nulls and frozen query
// constants. Genuine constants are rigid.
func flexibleElem(t term.Term) bool {
	return !t.IsConst() || cq.IsFrozenConst(t)
}

// candidate is one possible image of a pattern atom: the tuple of
// images of the pattern atom's arguments.
type candidate []term.Term

// posPair is a pair of argument positions sharing a flexible element.
type posPair struct{ pi, pj int }

// Covers decides whether the duplicator wins the existential 1-cover
// game on (pattern, ptuple) versus (target, ttuple): Lemma 28's H
// exists. ptuple and ttuple must have equal length; position i of
// ptuple is pinned to position i of ttuple. On Options.Cancel it aborts
// the arc-consistency fixpoint and returns stop.ErrCancelled.
func Covers(pattern []instance.Atom, ptuple []term.Term, target *instance.Instance, ttuple []term.Term, opt Options) (bool, error) {
	if len(ptuple) != len(ttuple) {
		return false, nil
	}
	n := len(pattern)
	if n == 0 {
		return true, nil
	}

	// pin maps pinned pattern elements to their required images.
	pin := make(map[term.Term]term.Term, len(ptuple))
	for i, p := range ptuple {
		if !flexibleElem(p) {
			// A rigid constant is its own only image (imageOf enforces
			// identity on rigid pattern arguments, bypassing pins), so a
			// pin sending it anywhere else is a spoiler win outright.
			// Arises when an egd chase equates a head coordinate with a
			// query constant: the pinned tuple then carries that
			// constant, and t̄ must repeat it exactly.
			if p != ttuple[i] {
				return false, nil
			}
			continue
		}
		if got, ok := pin[p]; ok {
			if got != ttuple[i] {
				return false, nil // t̄ repeats an element that t̄' does not
			}
			continue
		}
		pin[p] = ttuple[i]
	}

	// Initial candidate sets: all target atoms of the right predicate
	// whose tuple is a consistent image respecting pins and rigid
	// constants.
	H := make([][]candidate, n)
	for i, a := range pattern {
		for _, fact := range target.ByPred(a.Pred) {
			if img, ok := imageOf(a, fact, pin); ok {
				H[i] = append(H[i], img)
			}
		}
		if len(H[i]) == 0 {
			return false, nil
		}
	}

	// shared[i][j] lists the argument-position pairs (pi, pj) where
	// pattern atoms i and j share a flexible element.
	shared := make([][][]posPair, n)
	for i := range pattern {
		shared[i] = make([][]posPair, n)
		for j := range pattern {
			if i == j {
				continue
			}
			for pi, ti := range pattern[i].Args {
				if !flexibleElem(ti) {
					continue
				}
				for pj, tj := range pattern[j].Args {
					if ti == tj {
						shared[i][j] = append(shared[i][j], posPair{pi, pj})
					}
				}
			}
		}
	}

	// Arc-consistency fixpoint: drop a candidate of atom i when some
	// atom j has no candidate agreeing on all shared positions.
	for changed := true; changed; {
		if stop.Cancelled(opt.Cancel) {
			return false, stop.ErrCancelled
		}
		changed = false
		for i := range pattern {
			kept := H[i][:0]
			for _, ci := range H[i] {
				ok := true
				for j := range pattern {
					if i == j || len(shared[i][j]) == 0 {
						continue
					}
					if !hasAgreeing(ci, H[j], shared[i][j]) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, ci)
				}
			}
			if len(kept) == 0 {
				return false, nil
			}
			if len(kept) != len(H[i]) {
				changed = true
			}
			H[i] = kept
		}
	}
	return true, nil
}

func hasAgreeing(ci candidate, cands []candidate, pairs []posPair) bool {
	for _, cj := range cands {
		ok := true
		for _, p := range pairs {
			if ci[p.pi] != cj[p.pj] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// imageOf checks that fact is a consistent image of pattern atom a:
// repeated flexible elements map consistently, rigid constants map to
// themselves, pinned elements map to their pin.
func imageOf(a, fact instance.Atom, pin map[term.Term]term.Term) (candidate, bool) {
	if len(a.Args) != len(fact.Args) {
		return nil, false
	}
	local := make(map[term.Term]term.Term, len(a.Args))
	img := make(candidate, len(a.Args))
	for i, t := range a.Args {
		want := fact.Args[i]
		if !flexibleElem(t) {
			if t != want {
				return nil, false
			}
			img[i] = want
			continue
		}
		if p, ok := pin[t]; ok && p != want {
			return nil, false
		}
		if prev, ok := local[t]; ok && prev != want {
			return nil, false
		}
		local[t] = want
		img[i] = want
	}
	return img, true
}

// Evaluate enumerates the game-certified answers of (pattern, ptuple)
// over db: every tuple t̄ with (pattern, ptuple) ≡∃1c (db, t̄), once
// each, in database order rather than canonical order. Under Theorem
// 25's premises, with pattern = q's atoms and ptuple = x̄, this is
// exactly q(db); with pattern = chase(q,Σ) and ptuple its frozen head
// it is Section 7's egd evaluation. Without those premises it
// overapproximates CQ evaluation (never misses a real answer). A
// Boolean ptuple yields {()} or nothing. On Options.Cancel the
// enumeration stops and stop.ErrCancelled is returned.
func Evaluate(pattern []instance.Atom, ptuple []term.Term, db *instance.Instance, opt Options) ([][]term.Term, error) {
	cand := domains(pattern, ptuple, db)
	var out [][]term.Term
	tuple := make([]term.Term, len(ptuple))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(ptuple) {
			ok, err := Covers(pattern, ptuple, db, tuple, opt)
			if err != nil {
				return err
			}
			if ok {
				// Clone keeps a Boolean answer a non-nil empty tuple.
				out = append(out, slices.Clone(tuple))
			}
			return nil
		}
		for _, v := range cand[i] {
			tuple[i] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// domains collects the candidate values of each position of ptuple,
// keeping the enumeration output-bounded per position rather than
// |D|^k blind. A rigid ptuple element (a genuine constant, e.g. a head
// coordinate the egd chase equated with a query constant) can only be
// its own image, so its domain is that single value. A flexible one
// ranges over the database values at every (predicate, position) where
// it occurs in the pattern.
func domains(pattern []instance.Atom, ptuple []term.Term, db *instance.Instance) [][]term.Term {
	cand := make([][]term.Term, len(ptuple))
	for i, x := range ptuple {
		if !flexibleElem(x) {
			cand[i] = []term.Term{x}
			continue
		}
		seen := make(map[term.Term]bool)
		for _, a := range pattern {
			for pos, t := range a.Args {
				if t != x {
					continue
				}
				for _, fact := range db.ByPred(a.Pred) {
					if pos < len(fact.Args) && !seen[fact.Args[pos]] {
						seen[fact.Args[pos]] = true
						cand[i] = append(cand[i], fact.Args[pos])
					}
				}
			}
		}
	}
	return cand
}
