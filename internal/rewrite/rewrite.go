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
	"fmt"
	"slices"
	"strconv"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

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
	// is closed (or receives); Rewrite then returns stop.ErrCancelled.
	// The channel is polled once per (disjunct, tgd) rewriting step and
	// inside every core search, so a diverging sticky closure stops
	// within one piece-rewriting step.
	Cancel <-chan struct{}
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
	// UCQ is the rewriting; the first disjunct is the input query's
	// core, under the query's own names.
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
//
// The first disjunct is q's core under q's own names. Every other
// disjunct names its free variables as q does and its other variables
// v0, v1, … in order of first occurrence, skipping the names of q's
// free variables, so the rewriting prints the same in every run and
// parses back. Internally each tgd is renamed once into the reserved
// frozen namespace, which no validated query can hold, so no variable
// of q or of a disjunct captures a tgd variable.
//
// Rewrite is a fresh Rewriter's Rewrite, so the result is the caller's
// own.
func Rewrite(q *cq.CQ, set *deps.Set, opt Options) (*Result, error) {
	w, err := NewRewriter(set)
	if err != nil {
		return nil, err
	}
	return w.Rewrite(q, opt)
}

// Rewriter computes the rewritings of many queries under one set of
// tgds and keeps its scratch between them: the renamed tgds, the
// closure's seen map, the hom.Corer (and the instance it freezes into)
// that core-reduces every step, the cq.Keyer that keys it, and the
// buffers a step is built in. A call allocates the disjuncts it keeps,
// the result that lists them and the cells its core searches freeze
// (instance.Reset recycles none), so a checker that rewrites many
// right-hand sides under one Σ owns one Rewriter. A Rewriter is not
// safe for concurrent use.
type Rewriter struct {
	tgds []tgdCopy

	corer hom.Corer
	keyer cq.Keyer
	seen  map[string]struct{} // keys of the disjuncts kept so far, all cores
	// vnames caches v0, v1, …, so a call mints only the names no
	// earlier call needed.
	vnames []term.Term

	// The call's options and query: q's name, its free variables (every
	// disjunct's head) and c(x) for each of them, since free variables
	// are rigid during unification and a rewriting thaws them back.
	// freeOK records that the free terms are distinct variables, which
	// CQ.Validate demands of every rewriting it accepts.
	opt        Options
	name       string
	free       []term.Term
	frozenFree []term.Term
	freeOK     bool
	names      []term.Term // v0, v1, … minus the free variables' names
	tried      int         // the next index names tries

	order, frontier, next []*cq.CQ
	complete              bool

	// The disjunct being rewritten, with its free variables frozen, and
	// its other variables.
	p     []instance.Atom
	pArgs []term.Term
	pVars []term.Term
	// The step: the tgd, each atom of p mapped to a head atom (its
	// index) or kept (-1), the unification problem and its unifier, the
	// variables of p outside the piece, and the rewriting.
	t           *tgdCopy
	assign      []int
	left, right []term.Term
	outside     []term.Term
	mu          term.Subst
	atoms       []instance.Atom
	args        []term.Term
	ren         []term.Term // copy: pairs of a variable and its new name
	err         error       // a core search's cancellation; stops the step
}

// NewRewriter returns a Rewriter for the tgds of the set, each renamed
// once. Sets containing egds are rejected, as by Rewrite.
func NewRewriter(set *deps.Set) (*Rewriter, error) {
	if len(set.EGDs) > 0 {
		return nil, fmt.Errorf("rewrite: egds are not UCQ rewritable")
	}
	return &Rewriter{tgds: renameTGDs(set.TGDs), seen: make(map[string]struct{}), mu: term.NewSubst()}, nil
}

// Rewrite computes the UCQ rewriting of q under the Rewriter's tgds:
// the result Rewrite(q, set, opt) returns, in the Rewriter's scratch.
// The result is the caller's own; a call that ends in an error or a
// cancellation leaves nothing the next call reads.
func (w *Rewriter) Rewrite(q *cq.CQ, opt Options) (*Result, error) {
	w.reset(q, opt.withDefaults())
	return w.run(q)
}

// reset readies the Rewriter for a call on q: it empties the seen map
// and the closure's lists and freezes q's free variables.
func (w *Rewriter) reset(q *cq.CQ, opt Options) {
	w.opt, w.name, w.free, w.freeOK, w.complete, w.err = opt, q.Name, q.Free, true, true, nil
	clear(w.seen)
	w.names, w.tried = w.names[:0], 0
	w.order, w.frontier, w.next = w.order[:0], w.frontier[:0], w.next[:0]
	w.frozenFree = w.frozenFree[:0]
	for i, x := range q.Free {
		w.frozenFree = append(w.frozenFree, cq.FrozenConst(x))
		if !x.IsVar() || slices.Contains(q.Free[:i], x) {
			w.freeOK = false
		}
	}
}

// tgdCopy is a tgd renamed apart from every query: its variables are
// reserved(0), reserved(1), … in the order of its body variables, then
// its existential ones.
type tgdCopy struct {
	body, head            []instance.Atom
	existential, frontier []term.Term
}

// reserved returns the j-th name of a renamed tgd variable: a variable
// in the reserved frozen namespace, which CQ.Validate rejects.
func reserved(j int) term.Term { return term.Var(term.FrozenPrefix + strconv.Itoa(j)) }

// renameTGDs copies the tgds with the j-th of each one's body variables
// followed by its existential variables renamed to reserved(j). The
// copies share one atom slab, one term slab and the reserved names.
func renameTGDs(tgds []*deps.TGD) []tgdCopy {
	natoms, nterms, nvars := 0, 0, 0
	for _, t := range tgds {
		natoms += len(t.Body) + len(t.Head)
		for _, a := range t.Body {
			nterms += len(a.Args)
		}
		for _, a := range t.Head {
			nterms += len(a.Args)
		}
		nterms += len(t.ExistentialVars()) + len(t.FrontierVars())
		nvars = max(nvars, len(t.BodyVars())+len(t.ExistentialVars()))
	}
	names := make([]term.Term, nvars)
	for j := range names {
		names[j] = reserved(j)
	}
	atoms, terms := make([]instance.Atom, 0, natoms), make([]term.Term, 0, nterms)
	out := make([]tgdCopy, len(tgds))
	for i, t := range tgds {
		rename := func(v term.Term) term.Term {
			if j := slices.Index(t.BodyVars(), v); j >= 0 {
				return names[j]
			}
			if j := slices.Index(t.ExistentialVars(), v); j >= 0 {
				return names[len(t.BodyVars())+j]
			}
			return v // a constant
		}
		copyVars := func(src []term.Term) []term.Term {
			start := len(terms)
			for _, v := range src {
				terms = append(terms, rename(v))
			}
			return terms[start:len(terms):len(terms)]
		}
		copyAtoms := func(src []instance.Atom) []instance.Atom {
			start := len(atoms)
			for _, a := range src {
				atoms = append(atoms, instance.Atom{Pred: a.Pred, Args: copyVars(a.Args)})
			}
			return atoms[start:len(atoms):len(atoms)]
		}
		out[i] = tgdCopy{
			body:        copyAtoms(t.Body),
			head:        copyAtoms(t.Head),
			existential: copyVars(t.ExistentialVars()),
			frontier:    copyVars(t.FrontierVars()),
		}
	}
	return out
}

// run computes the closure of q: a breadth-first search over disjuncts,
// one level per round, in which every (disjunct, tgd) step polls
// Options.Cancel.
func (w *Rewriter) run(q *cq.CQ) (*Result, error) {
	start, err := w.corer.Core(q.Free, q.Atoms, w.opt.Cancel)
	if err != nil {
		return nil, err
	}
	w.seen[string(w.keyer.Key(q.Free, start))] = struct{}{}
	first := &cq.CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: instance.CloneAtoms(start)}
	w.order = append(w.order, first)
	w.frontier = append(w.frontier, first)
	rounds := 0
	for len(w.frontier) > 0 && rounds < w.opt.MaxRounds {
		rounds++
		for _, p := range w.frontier {
			w.load(p)
			for i := range w.tgds {
				if stop.Cancelled(w.opt.Cancel) {
					return nil, stop.ErrCancelled
				}
				w.t = &w.tgds[i]
				w.enumerate(0, false)
				if w.err != nil {
					return nil, w.err
				}
			}
		}
		w.frontier, w.next = w.next, w.frontier[:0]
	}
	if len(w.frontier) > 0 {
		w.complete = false
	}
	// The UCQ keeps its own list: w.order is the next call's scratch.
	ucq, err := cq.NewUCQ(slices.Clone(w.order)...)
	if err != nil {
		return nil, fmt.Errorf("rewrite: internal: %w", err)
	}
	return &Result{UCQ: ucq, Complete: w.complete, Rounds: rounds}, nil
}

// load makes p the disjunct to rewrite: its atoms with the free
// variables frozen, and its other variables.
func (w *Rewriter) load(p *cq.CQ) {
	nargs := 0
	for _, a := range p.Atoms {
		nargs += len(a.Args)
	}
	w.p, w.pArgs, w.pVars = w.p[:0], slices.Grow(w.pArgs[:0], nargs), w.pVars[:0]
	for _, a := range p.Atoms {
		start := len(w.pArgs)
		for _, t := range a.Args {
			if i := slices.Index(w.free, t); i >= 0 {
				t = w.frozenFree[i]
			} else if t.IsVar() && !slices.Contains(w.pVars, t) {
				w.pVars = append(w.pVars, t)
			}
			w.pArgs = append(w.pArgs, t)
		}
		w.p = append(w.p, instance.Atom{Pred: a.Pred, Args: w.pArgs[start:len(w.pArgs):len(w.pArgs)]})
	}
	w.assign = slices.Grow(w.assign[:0], len(w.p))[:len(w.p)]
}

// enumerate assigns each atom of p from the i-th on either to be kept
// or to a head atom of the tgd with its predicate and arity, and applies
// every assignment that maps some atom.
func (w *Rewriter) enumerate(i int, any bool) {
	if w.err != nil {
		return
	}
	if i == len(w.p) {
		if any {
			w.applyPiece()
		}
		return
	}
	w.assign[i] = -1
	w.enumerate(i+1, any)
	for j, h := range w.t.head {
		if h.Pred == w.p[i].Pred && len(h.Args) == len(w.p[i].Args) {
			w.assign[i] = j
			w.enumerate(i+1, true)
		}
	}
	w.assign[i] = -1
}

// applyPiece attempts the piece unification the assignment describes
// and, on success, builds the rewriting μ(body) ∪ μ(p∖S) and considers
// it for the closure. A head that is not a list of distinct variables
// comes only from a q CQ.Validate rejects (Rewrite takes q as given),
// and Validate rejects every rewriting of it.
func (w *Rewriter) applyPiece() {
	if w.freeOK && w.unifyPiece() && w.build() {
		w.consider()
	}
}

// unifyPiece unifies the atoms the assignment maps with their head
// atoms into w.mu and reports whether the unifier exists and meets the
// piece conditions.
func (w *Rewriter) unifyPiece() bool {
	t := w.t
	w.left, w.right = w.left[:0], w.right[:0]
	for i, a := range w.p {
		if j := w.assign[i]; j >= 0 {
			w.left = append(w.left, a.Args...)
			w.right = append(w.right, t.head[j].Args...)
		}
	}
	clear(w.mu)
	if !term.UnifyInto(w.mu, w.left, w.right) {
		return false
	}

	// Variables of p occurring outside S (they must keep their values,
	// so they may not be equated with an existential variable).
	w.outside = w.outside[:0]
	for i, a := range w.p {
		if w.assign[i] >= 0 {
			continue
		}
		for _, v := range a.Args {
			if v.IsVar() && !slices.Contains(w.outside, v) {
				w.outside = append(w.outside, v)
			}
		}
	}

	// Piece conditions on each existential variable z of t: its
	// equivalence class must contain nothing but z itself and variables
	// of p that occur only inside S.
	for _, z := range t.existential {
		rz := w.mu.Resolve(z)
		if rz.IsConst() {
			return false // null cannot equal a constant (incl. frozen answer vars)
		}
		if rz != z && (!slices.Contains(w.pVars, rz) || slices.Contains(w.outside, rz)) {
			// rz must be an S-only p-variable, not a frontier variable,
			// not another existential.
			return false
		}
		// No two distinct existential variables may coincide, and no
		// frontier variable or outside-S p-variable may land in z's
		// class.
		for _, z2 := range t.existential {
			if z2 != z && w.mu.Resolve(z2) == rz {
				return false
			}
		}
		for _, f := range t.frontier {
			if w.mu.Resolve(f) == rz {
				return false
			}
		}
		for _, v := range w.outside {
			if w.mu.Resolve(v) == rz {
				return false
			}
		}
	}
	return true
}

// build builds the rewriting μ(body(t)) ∪ μ(p \ S) into w.atoms, with
// the answer variables thawed and duplicates dropped in place. It
// reports false, as soon as it sees one, for a rewriting CQ.Validate
// rejects once the tgd variables it holds are renamed out of the
// reserved namespace (TestRewriteScanMatchesValidate checks the two
// against each other).
func (w *Rewriter) build() bool {
	t := w.t
	nargs := 0
	for _, b := range t.body {
		nargs += len(b.Args)
	}
	for i, a := range w.p {
		if w.assign[i] < 0 {
			nargs += len(a.Args)
		}
	}
	w.atoms, w.args = w.atoms[:0], slices.Grow(w.args[:0], nargs)
	for _, b := range t.body {
		if !w.appendImage(b) {
			return false
		}
	}
	for i, a := range w.p {
		if w.assign[i] < 0 && !w.appendImage(a) {
			return false
		}
	}
	return w.coversFree()
}

// appendImage appends μ(a), thawed, to the rewriting unless an equal
// atom is there already. It reports false when the rewriting is one
// CQ.Validate rejects: an atom holds a null or a frozen constant that
// is no answer variable's, or uses a predicate at a second arity. A
// second arity needs only a q and a Σ that disagree on a predicate; a
// null or a stray frozen constant comes only from a q that Validate
// rejects, since tgds hold neither and unification makes neither.
func (w *Rewriter) appendImage(a instance.Atom) bool {
	start := len(w.args)
	for _, t := range a.Args {
		t = w.mu.Resolve(t)
		switch {
		case t.IsNull():
			return false
		case t.IsConst():
			if i := slices.Index(w.frozenFree, t); i >= 0 {
				t = w.free[i]
			} else if term.IsFrozen(t) {
				return false
			}
		}
		w.args = append(w.args, t)
	}
	img := instance.Atom{Pred: a.Pred, Args: w.args[start:len(w.args):len(w.args)]}
	for _, b := range w.atoms {
		if b.Pred != img.Pred {
			continue
		}
		if len(b.Args) != len(img.Args) {
			return false
		}
		if b.Equal(img) {
			w.args = w.args[:start]
			return true
		}
	}
	w.atoms = append(w.atoms, img)
	return true
}

// coversFree reports whether every answer variable occurs in the
// rewriting, as CQ.Validate demands. Only a q whose own body misses an
// answer variable fails it: a step carries each answer variable of S
// into μ(body), through a frontier variable, or rejects the piece.
func (w *Rewriter) coversFree() bool {
	for _, x := range w.free {
		found := false
		for _, a := range w.atoms {
			if slices.Contains(a.Args, x) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// consider core-reduces the rewriting and adds its core to the closure
// unless an isomorphic disjunct is there. Core reduction shrinks the
// UCQ, and it is what makes the closure terminate on recursive sticky
// sets, where raw piece-rewriting keeps producing redundant inflations
// of earlier disjuncts.
//
// The raw rewriting is keyed first: when its key is seen it is
// isomorphic to a kept disjunct, which is a core, so it is a core
// itself, its core is itself, and the step is skipped without a
// retraction search.
func (w *Rewriter) consider() {
	if w.opt.MaxAtomsPerCQ > 0 && len(w.atoms) > w.opt.MaxAtomsPerCQ {
		w.complete = false
		return
	}
	key := w.keyer.Key(w.free, w.atoms)
	if w.seenKey(key) {
		return
	}
	core, err := w.corer.Core(w.free, w.atoms, w.opt.Cancel)
	if err != nil {
		w.err = err
		return
	}
	if len(core) < len(w.atoms) {
		if key = w.keyer.Key(w.free, core); w.seenKey(key) {
			return
		}
	}
	if len(w.seen) >= w.opt.MaxDisjuncts {
		w.complete = false
		return
	}
	w.seen[string(key)] = struct{}{}
	d := w.copyDisjunct(core)
	w.next = append(w.next, d)
	w.order = append(w.order, d)
}

// seenKey reports whether a kept disjunct has the key; the lookup
// converts the key without copying it.
func (w *Rewriter) seenKey(key []byte) bool {
	_, ok := w.seen[string(key)]
	return ok
}

// copyDisjunct copies a kept core into one term slab holding its head
// and its arguments. Free variables keep their names; every other
// variable takes the next of v0, v1, … in order of first occurrence.
func (w *Rewriter) copyDisjunct(atoms []instance.Atom) *cq.CQ {
	nf, nargs := len(w.free), 0
	for _, a := range atoms {
		nargs += len(a.Args)
	}
	slab := make([]term.Term, nf+nargs)
	copy(slab, w.free)
	out := make([]instance.Atom, len(atoms))
	w.ren = w.ren[:0]
	k := nf
	for i, a := range atoms {
		args := slab[k : k+len(a.Args) : k+len(a.Args)]
		for j, t := range a.Args {
			if t.IsVar() && !slices.Contains(w.free, t) {
				t = w.rename(t)
			}
			args[j] = t
		}
		out[i] = instance.Atom{Pred: a.Pred, Args: args}
		k += len(a.Args)
	}
	return &cq.CQ{Name: w.name, Free: slab[:nf:nf], Atoms: out}
}

// rename returns the name of existential variable v in the disjunct
// being copied, naming v on its first occurrence.
func (w *Rewriter) rename(v term.Term) term.Term {
	for i := 0; i < len(w.ren); i += 2 {
		if w.ren[i] == v {
			return w.ren[i+1]
		}
	}
	n := len(w.ren) / 2
	// Each free variable's name is skipped at most once.
	for ; len(w.names) <= n; w.tried++ {
		if len(w.vnames) == w.tried {
			w.vnames = append(w.vnames, term.Var("v"+strconv.Itoa(w.tried)))
		}
		if name := w.vnames[w.tried]; !slices.Contains(w.free, name) {
			w.names = append(w.names, name)
		}
	}
	w.ren = append(w.ren, v, w.names[n])
	return w.names[n]
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
