// Package hom implements homomorphisms between conjunctive queries and
// instances: the backtracking search underlying CQ evaluation (the
// NP-complete general case, Chandra–Merlin), plain CQ containment and
// equivalence (no constraints), and core computation (CQ minimization).
package hom

import (
	"errors"
	"slices"
	"sync"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// enumerator is the state of one Enumerate, Find or Exists call: the
// substitution being extended, the undo stack of the open levels, the
// pattern in search order and orderAtoms' scratch. Enumerators are
// recycled through enumPool, so a steady-state call allocates nothing
// for its own bookkeeping. Nested calls (an Exists inside a yield, as
// in the chase) each take their own enumerator.
type enumerator struct {
	sub    term.Subst         // the partial homomorphism; init copied in
	undo   []term.Term        // keys bound by the open levels, innermost last
	order  []instance.Atom    // the pattern atoms in search order
	used   []bool             // orderAtoms: atoms already placed
	seen   map[term.Term]bool // orderAtoms: bound terms and placed variables
	target *instance.Instance
	// without, when hasWithout, is a target atom the enumeration treats
	// as removed (Core's retraction search; see candidatesWithout).
	without    instance.Atom
	hasWithout bool
	// terms bounds how many entries sub and seen can hold: init's
	// bindings plus the pattern's argument positions.
	terms int
	// Backtracks are counted here and flushed to the process-global
	// counter once per enumeration: the hot loop pays a plain
	// increment, the observability layer two atomic adds per call.
	backtracks int64
}

// maxPooledTerms is the largest enumerator, in terms its maps may have
// held, that goes back to the pool. Go maps never shrink, so an
// enumerator grown for an outsized pattern or init would make every
// later clear pay for its table; it is left to the collector instead.
const maxPooledTerms = 64

var enumPool = sync.Pool{New: func() any {
	return &enumerator{sub: term.NewSubst(), seen: make(map[term.Term]bool)}
}}

// newEnumerator takes an enumerator from the pool and readies it for
// pattern over target, extending init (which is copied, not retained).
func newEnumerator(pattern []instance.Atom, target *instance.Instance, init term.Subst) *enumerator {
	e := enumPool.Get().(*enumerator)
	e.target = target
	nargs := 0
	for _, a := range pattern {
		nargs += len(a.Args)
	}
	e.terms = len(init) + nargs
	// Each pattern argument binds at most one key, so one allocation
	// sizes the undo stack of an enumerator fresh from the pool.
	if cap(e.undo) < nargs {
		e.undo = make([]term.Term, 0, nargs)
	}
	//semalint:allow detmap(copies init into the pooled substitution; insertion order cannot escape)
	for k, v := range init {
		e.sub[k] = v
	}
	e.orderAtoms(pattern)
	return e
}

// release flushes the enumeration's counters and returns e to the pool
// unless its maps may have grown past maxPooledTerms.
func (e *enumerator) release() {
	obs.HomEnumerations.Add(1)
	if e.backtracks > 0 {
		obs.HomBacktracks.Add(e.backtracks)
	}
	if e.terms > maxPooledTerms {
		return
	}
	clear(e.sub)
	clear(e.seen)
	clear(e.order)
	e.order, e.undo, e.target, e.backtracks = e.order[:0], e.undo[:0], nil, 0
	e.without, e.hasWithout = instance.Atom{}, false
	enumPool.Put(e)
}

// orderAtoms writes the pattern atoms into e.order in a connected,
// selectivity-friendly order: start from the atom with the most
// constants/bound terms, then repeatedly pick the atom sharing the most
// already-seen variables (the first such atom on a tie). The terms
// bound in e.sub count as seen. A good static order keeps the
// backtracking search shallow.
func (e *enumerator) orderAtoms(atoms []instance.Atom) {
	n := len(atoms)
	if cap(e.used) < n {
		e.used = make([]bool, n)
	}
	if cap(e.order) < n {
		e.order = make([]instance.Atom, 0, n)
	}
	used := e.used[:n]
	clear(used)
	//semalint:allow detmap(set union into seen; insertion order cannot escape)
	for t := range e.sub {
		e.seen[t] = true
	}
	score := func(a instance.Atom) int {
		s := 0
		for _, t := range a.Args {
			if t.IsConst() || e.seen[t] {
				s += 2
			}
		}
		return s
	}
	//semalint:allow cancelpoll(selects one unused atom per pass; exactly n iterations)
	for len(e.order) < n {
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
		e.order = append(e.order, atoms[best])
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				e.seen[t] = true
			}
		}
	}
}

// rec extends e.sub over e.order[i:]. At a complete homomorphism it
// calls yield, or with a nil yield stops the search. It reports false
// once the search was stopped.
func (e *enumerator) rec(i int, yield func(term.Subst) bool) bool {
	if i == len(e.order) {
		return yield != nil && yield(e.sub)
	}
	a := e.order[i]
	var cs candSet
	if e.hasWithout {
		cs = candidatesWithout(e.target, a, e.sub, e.without)
	} else {
		cs = pickCandidates(e.target, a, e.sub)
	}
	for k := 0; k < cs.n; k++ {
		cand := cs.at(k)
		// One undo stack serves the whole enumeration: each level marks
		// its height, matches (pushing the keys it binds), recurses,
		// then unbinds and pops its own frame, so a successful match
		// allocates nothing once the stack has grown to the pattern's
		// variable count.
		mark := len(e.undo)
		var ok bool
		e.undo, ok = term.MatchTuple(e.sub, a.Args, cand.Args, e.undo)
		if !ok {
			e.backtracks++
			continue
		}
		cont := e.rec(i+1, yield)
		term.Unbind(e.sub, e.undo[mark:])
		e.undo = e.undo[:mark]
		if !cont {
			return false
		}
	}
	return true
}

// candidates returns the target atoms that could match pattern a under
// the current substitution, using the most selective available index.
func candidates(target *instance.Instance, a instance.Atom, sub term.Subst) []instance.Atom {
	best := target.ByPred(a.Pred)
	for i, t := range a.Args {
		img, ok := pinned(t, sub)
		if !ok {
			continue
		}
		if list := target.ByPos(a.Pred, i, img); len(list) < len(best) {
			best = list
		}
	}
	return best
}

// pinned returns the value pattern term t is fixed to under sub, or
// false while t can still be bound: an unbound variable, or a pattern
// null sub does not bind (bindable, not a fixed value).
func pinned(t term.Term, sub term.Subst) (term.Term, bool) {
	img := sub.Apply(t)
	if img.IsVar() {
		return img, false
	}
	if img.IsNull() {
		if _, bound := sub[t]; !bound {
			return img, false
		}
	}
	return img, true
}

// candidatesWithout is candidates on target with atom x removed, read
// as Instance.Remove would leave the index lists: the list's last atom
// fills x's slot and the list is one shorter. Lengths are compared
// after the removal, so the list that wins is the one candidates picks
// on the removed instance, and its atoms come in the same order. x
// must be an atom of target. The interned view is never consulted.
func candidatesWithout(target *instance.Instance, a instance.Atom, sub term.Subst, x instance.Atom) candSet {
	best := target.ByPred(a.Pred)
	bestN := len(best)
	inPred := x.Pred == a.Pred && len(x.Args) == len(a.Args)
	if inPred {
		bestN--
	}
	for i, t := range a.Args {
		img, ok := pinned(t, sub)
		if !ok {
			continue
		}
		list := target.ByPos(a.Pred, i, img)
		n := len(list)
		if inPred && x.Args[i] == img {
			n--
		}
		if n < bestN {
			best, bestN = list, n
		}
	}
	hole := -1
	if bestN < len(best) {
		for k := range best {
			if best[k].Equal(x) {
				hole = k
				break
			}
		}
	}
	return candSet{list: best, n: bestN, hole: hole}
}

// Enumerate calls yield for every homomorphism from the pattern atoms
// into target that extends init (init itself is never mutated). The
// pattern may mention variables, constants and nulls; variables and
// nulls are bindable, constants are rigid. Enumeration stops early when
// yield returns false. The substitution passed to yield is valid only
// during that yield call: it is extended and unbound in place as the
// search goes on, and recycled for another enumeration once Enumerate
// returns. yield must copy it (term.Subst.Clone, ResolveTuple) to keep
// any part of it.
func Enumerate(pattern []instance.Atom, target *instance.Instance, init term.Subst, yield func(term.Subst) bool) {
	e := newEnumerator(pattern, target, init)
	e.rec(0, yield)
	e.release()
}

// enumerateWithout is Enumerate into target with its atom x treated as
// removed, in the order Enumerate would take on a clone of target from
// which x was removed. It reads target's map indexes only.
func enumerateWithout(pattern []instance.Atom, target *instance.Instance, init term.Subst, x instance.Atom, yield func(term.Subst) bool) {
	e := newEnumerator(pattern, target, init)
	e.without, e.hasWithout = x, true
	e.rec(0, yield)
	e.release()
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

// Exists reports whether any homomorphism extends init. It runs the
// search of Find without building the homomorphism.
func Exists(pattern []instance.Atom, target *instance.Instance, init term.Subst) bool {
	e := newEnumerator(pattern, target, init)
	found := !e.rec(0, nil)
	e.release()
	return found
}

// ErrCancelled reports that EvaluateCancel stopped because its cancel
// channel closed.
var ErrCancelled = errors.New("hom: evaluation cancelled")

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
	ans, _ := EvaluateCancel(q, target, nil) // a nil channel never fires
	return ans
}

// EvaluateCancel is Evaluate that stops with ErrCancelled once cancel
// is closed; a nil cancel never fires. It polls once per enumerated
// homomorphism, so on answer-dense databases latency is tight, while a
// long fruitless backtrack between answers is not interruptible.
func EvaluateCancel(q *cq.CQ, target *instance.Instance, cancel <-chan struct{}) ([][]term.Term, error) {
	PrepareTarget(target)
	local := symtab.New()
	seen := make(map[string]bool)
	var answers [][]term.Term
	var idbuf []byte
	aborted := false
	Enumerate(q.Atoms, target, nil, func(s term.Subst) bool {
		select {
		case <-cancel:
			aborted = true
			return false
		default:
		}
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
	if aborted {
		return nil, ErrCancelled
	}
	slices.SortFunc(answers, term.CompareTuples)
	return answers, nil
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
