// Package chase implements the chase procedure for tgds and egds
// (Section 2 of the paper): the restricted (standard) and oblivious
// tgd chase with fresh labelled nulls, the egd chase with null
// identification and failure, chasing a query via freezing (Lemma 1),
// and derivation-depth tracking used to budget non-terminating chases
// (e.g. under guarded tgds).
package chase

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// ErrFailed reports a failing egd chase: an egd tried to equate two
// distinct rigid constants.
var ErrFailed = errors.New("chase: egd chase failed (constant clash)")

// Options tunes a chase run. The zero value picks safe defaults.
type Options struct {
	// MaxSteps caps the number of tgd applications (default 100000).
	MaxSteps int
	// MaxAtoms caps the instance size (default 1000000).
	MaxAtoms int
	// MaxDepth, when positive, skips tgd applications whose derived
	// atoms would exceed this derivation depth. Initial atoms have
	// depth 0. This is the budget that makes the guarded (possibly
	// infinite) chase usable: homomorphism witnesses for containment
	// live in a bounded-depth prefix (see DESIGN.md §2).
	MaxDepth int
	// Oblivious applies tgds even when their head is already satisfied
	// (each body homomorphism fires at most once). The default is the
	// restricted chase.
	Oblivious bool
	// FreezeAsNulls treats frozen query constants (cq.FrozenConst) as
	// identifiable by egds, per the paper's convention for chase(q,Σ)
	// under egds ("special constants, treated as nulls during the
	// chase"). Query enables it automatically when the set has egds.
	FreezeAsNulls bool
	// Trace records every chase step in Result.Trace. Off by default:
	// long chases produce long traces.
	Trace bool
	// Cancel, when non-nil, aborts the run as soon as the channel is
	// closed (or receives); Run then returns stop.ErrCancelled. The
	// channel is polled before every trigger firing, every egd
	// application and every 64 collected triggers, so cancellation
	// latency is bounded by one chase step, not one fixpoint round.
	Cancel <-chan struct{}
}

// Step records one chase step for tracing: either a tgd application
// (TGD ≥ 0, Added lists the new atoms) or an egd merge (TGD = -1,
// Merged holds the identified pair, old then new).
type Step struct {
	TGD    int
	Added  []instance.Atom
	Merged [2]term.Term
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 100000
	}
	if o.MaxAtoms <= 0 {
		o.MaxAtoms = 1000000
	}
	return o
}

// Result is the outcome of a chase run.
type Result struct {
	// Instance is the chased instance (shared with no caller input; Run
	// clones its input database).
	Instance *instance.Instance
	// Complete reports that a fixpoint was reached: every tgd and egd
	// is satisfied. False means a budget (steps, atoms or depth)
	// truncated the run.
	Complete bool
	// Steps counts tgd applications performed.
	Steps int
	// Merges records the term identifications performed by egds, as a
	// substitution from replaced terms to their replacements (fully
	// resolved).
	Merges term.Subst
	// Trace lists the chase steps in order when Options.Trace was set.
	Trace []Step
	// Stats holds the always-on run counters (rounds, triggers, nulls,
	// merges). Unlike Trace these cost a handful of integer increments,
	// so they are collected unconditionally; with Trace on, TriggersFired
	// equals the number of tgd entries and Merges the number of merge
	// entries in the trace.
	Stats obs.ChaseStats

	// depth is each atom's derivation depth, indexed by its slot in
	// Instance (see DepthOf).
	depth []int32
}

// DepthOf returns the derivation depth of atom a in the chased
// instance: 0 for an atom of the input, one more than the deepest body
// atom of the trigger that derived it otherwise, and the minimum over
// the atoms an egd merge collapsed onto it. ok is false when the
// instance does not hold a. The answer is defined while Instance is
// unmodified.
func (r *Result) DepthOf(a instance.Atom) (depth int, ok bool) {
	s := r.Instance.SlotOf(a.Pred, a.Args)
	if s < 0 {
		return 0, false
	}
	return int(r.depth[s]), true
}

// Run chases db with the dependency set under the given options. The
// input database is not modified. An egd clash of rigid constants
// returns ErrFailed (wrapped), per the paper's "failure" outcome.
func Run(db *instance.Instance, set *deps.Set, opt Options) (*Result, error) {
	var s state
	res := new(Result)
	if err := s.run(res, db.Clone(), set, opt, true); err != nil {
		return nil, err
	}
	return res, nil
}

// Query chases the query q per Lemma 1: variables are frozen to the
// constants c(x), the resulting database is chased, and the frozen head
// tuple — adjusted for any egd merges — is returned with the result.
// When the set contains egds the frozen constants are treated as nulls,
// per the paper's convention. It is a fresh Runner's Query, so the
// result is the caller's own.
func Query(q *cq.CQ, set *deps.Set, opt Options) (*Result, []term.Term, error) {
	return new(Runner).Query(q, set, opt)
}

// Runner chases one query at a time into an instance and run state it
// keeps between queries: the instance is reset rather than rebuilt, the
// freezer remembers each variable's frozen constant, and the merge and
// scratch substitutions, the depth table and the trigger, slab and
// argument buffers are emptied rather than reallocated. A search that
// verifies many candidates owns one Runner and so stops allocating run
// state once its buffers fit. The zero value is ready to use. A Runner
// is not safe for concurrent use.
type Runner struct {
	inst *instance.Instance
	fz   cq.Freezer
	st   state
	res  Result
	// tuple is the frozen head tuple resolved through the run's merges.
	tuple []term.Term
}

// Freeze resets the runner's instance to D_q (Lemma 1) and returns it
// with the frozen head tuple, without chasing. Both stay valid until
// the runner's next call.
func (r *Runner) Freeze(q *cq.CQ) (*instance.Instance, []term.Term) {
	if r.inst == nil {
		r.inst = instance.NewSized(len(q.Atoms), q.MaxArity())
	}
	return r.inst, r.fz.Freeze(q, r.inst)
}

// Query is the package-level Query run in the runner's scratch. The
// Result and the tuple stay valid until the runner's next call. Every
// run starts from a full reset, so a run that ended in an error, an egd
// failure or a cancellation leaves nothing the next run reads.
//
// The k-th null of each run takes the k-th name the runner has minted,
// and term.FreshNull is called only when a run needs more nulls than
// any earlier one. Every null in the runner's instance was minted by
// the runner, so no reused name can meet a null it does not stand for;
// a query that itself holds a null breaks that premise, and its run
// mints fresh names throughout.
func (r *Runner) Query(q *cq.CQ, set *deps.Set, opt Options) (*Result, []term.Term, error) {
	db, frozen := r.Freeze(q)
	if len(set.EGDs) > 0 {
		opt.FreezeAsNulls = true
	}
	if err := r.st.run(&r.res, db, set, opt, holdsNull(q)); err != nil {
		return nil, nil, err
	}
	r.tuple = r.tuple[:0]
	for _, t := range frozen {
		r.tuple = append(r.tuple, r.res.Merges.Resolve(t))
	}
	return &r.res, r.tuple, nil
}

// holdsNull reports whether a body atom of q mentions a labelled null.
func holdsNull(q *cq.CQ) bool {
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsNull() {
				return true
			}
		}
	}
	return false
}

// state is one chase run's state. A Runner keeps it between runs; run
// resets every field a run reads before it starts.
type state struct {
	inst     *instance.Instance
	set      *deps.Set
	opt      Options
	steps    int
	complete bool
	merges   term.Subst
	// depth is the derivation depth per instance slot. Every free
	// slot below len(depth) holds unsetDepth, so an atom that takes a
	// slot finds no stale depth there (see lowerDepth and replace).
	depth []int32
	trace []Step
	stats obs.ChaseStats
	// fired remembers body-homomorphism fingerprints for the oblivious
	// chase so each trigger fires at most once; fpBuf builds them.
	fired map[string]bool
	fpBuf []byte
	// scratch is the one substitution the single-writer firing loop
	// binds a trigger's frontier (and then its nulls) into.
	scratch term.Subst
	// triggers, slab and args are reused across collections and
	// firings: a tgd's triggers are all consumed before the next
	// collection starts.
	triggers []trigger
	slab     []term.Term
	args     []term.Term
	// atoms lists the instance for the initial depths and egd merges.
	atoms []instance.Atom
	// names are the null names minted so far and nulls the number this
	// run has used; freshNulls makes every null of the run a new name.
	names      []term.Term
	nulls      int
	freshNulls bool
}

// run chases inst in place into res: the result's Instance is inst
// itself. It resets the state first, keeping its buffers and minted
// null names; freshNulls mints a new name for every null.
func (s *state) run(res *Result, inst *instance.Instance, set *deps.Set, opt Options, freshNulls bool) error {
	opt = opt.withDefaults()
	s.inst, s.set, s.opt = inst, set, opt
	s.steps, s.complete, s.trace, s.stats = 0, false, nil, obs.ChaseStats{}
	s.nulls, s.freshNulls = 0, freshNulls
	if s.merges == nil {
		s.merges, s.scratch = term.NewSubst(), term.NewSubst()
	}
	clear(s.merges)
	clear(s.scratch)
	s.depth = s.depth[:0]
	s.atoms = s.inst.AppendAtomsUnordered(s.atoms[:0])
	for _, a := range s.atoms {
		s.lowerDepth(s.inst.SlotOf(a.Pred, a.Args), 0)
	}
	if err := s.fixpoint(); err != nil {
		return err
	}
	s.stats.Atoms = s.inst.Len()
	s.stats.Complete = s.complete
	obs.ChaseRuns.Add(1)
	obs.ChaseRounds.Add(int64(s.stats.Rounds))
	obs.ChaseTriggersFired.Add(int64(s.stats.TriggersFired))
	obs.ChaseNulls.Add(int64(s.stats.NullsCreated))
	obs.ChaseMerges.Add(int64(s.stats.Merges))
	*res = Result{
		Instance: s.inst,
		Complete: s.complete,
		Steps:    s.steps,
		Merges:   s.merges,
		Trace:    s.trace,
		Stats:    s.stats,
		depth:    s.depth,
	}
	return nil
}

// newNull returns the run's next null: the name the run at this
// position took before, a new name past them, or a new name throughout
// under freshNulls.
func (s *state) newNull() term.Term {
	s.stats.NullsCreated++
	if s.freshNulls {
		return term.FreshNull()
	}
	if s.nulls == len(s.names) {
		s.names = append(s.names, term.FreshNull())
	}
	s.nulls++
	return s.names[s.nulls-1]
}

// unsetDepth marks a slot without a depth. It exceeds every real
// depth, so one minimum serves a new atom and a merged one alike.
const unsetDepth = math.MaxInt32

// lowerDepth lowers the depth of the atom in slot sl to d: sets it, for
// an atom that just took a free slot or one past the table.
func (s *state) lowerDepth(sl int32, d int32) {
	if n := len(s.depth); int(sl) >= n {
		s.depth = append(s.depth, make([]int32, int(sl)+1-n)...)
		for i := range s.depth[n:] {
			s.depth[n+i] = unsetDepth
		}
	}
	s.depth[sl] = min(s.depth[sl], d)
}

// applyArgs resolves the arguments of a under sub into the reused
// argument buffer; the result is valid until the next call.
func (s *state) applyArgs(a instance.Atom, sub term.Subst) []term.Term {
	s.args = s.args[:0]
	for _, t := range a.Args {
		s.args = append(s.args, sub.Resolve(t))
	}
	return s.args
}

// fixpoint alternates the egd fixpoint and tgd rounds until nothing
// applies or a budget stops it.
func (s *state) fixpoint() error {
	if s.opt.Oblivious {
		if s.fired == nil {
			s.fired = make(map[string]bool)
		}
		clear(s.fired)
	}
	truncated := false
	for {
		if stop.Cancelled(s.opt.Cancel) {
			return stop.ErrCancelled
		}
		if err := s.egdFixpoint(); err != nil {
			return err
		}
		progressed, trunc, err := s.tgdPass()
		if err != nil {
			return err
		}
		truncated = truncated || trunc
		if !progressed {
			s.complete = !truncated
			return nil
		}
	}
}

// tgdPass applies every currently applicable tgd trigger once. It
// reports whether anything fired and whether any application was
// suppressed by a budget.
//
// A round interleaves collection and firing: tgd i's triggers are
// collected against the instance already mutated by tgds < i, and the
// restricted re-check below keeps triggers made stale by tgd i's own
// firings sound. A round that fires nothing left the instance
// untouched, so the fixpoint claim is exact.
func (s *state) tgdPass() (progressed, truncated bool, err error) {
	s.stats.Rounds++
	for ti := range s.set.TGDs {
		triggers := s.collectTriggers(ti)
		s.stats.TriggersCollected += len(triggers)
		for _, trig := range triggers {
			if stop.Cancelled(s.opt.Cancel) {
				return progressed, truncated, stop.ErrCancelled
			}
			if s.steps >= s.opt.MaxSteps || s.inst.Len() >= s.opt.MaxAtoms {
				return progressed, true, nil
			}
			// Re-check against the current (mutated) instance.
			if !s.opt.Oblivious && s.headSatisfied(ti, trig.frontier) {
				continue
			}
			if s.opt.Oblivious {
				s.fpBuf = append(strconv.AppendInt(s.fpBuf[:0], int64(ti), 10), '|')
				for _, img := range trig.body {
					s.fpBuf = img.AppendKey(s.fpBuf)
				}
				if s.fired[string(s.fpBuf)] {
					continue
				}
				s.fired[string(s.fpBuf)] = true
			}
			newDepth := trig.depth + 1
			if s.opt.MaxDepth > 0 && newDepth > s.opt.MaxDepth {
				truncated = true
				continue
			}
			s.fire(ti, trig.frontier, newDepth)
			progressed = true
		}
	}
	return progressed, truncated, nil
}

// trigger is one body homomorphism of a tgd, kept as the images of the
// tgd's variable lists (tgdVars). Both image slices are capped windows
// of one slab per collection.
type trigger struct {
	frontier []term.Term // images of the frontier (body∩head) variables
	body     []term.Term // images of all body variables (oblivious dedup only)
	depth    int         // max derivation depth over the body image
}

// collectTriggers snapshots the homomorphisms from tgd ti's body into
// the current instance, keeping the frontier images and body-image
// depth. It only reads the instance, the depth table and the tgd's
// variable lists. The returned triggers live in the state's buffers
// until the next collection.
func (s *state) collectTriggers(ti int) []trigger {
	t := s.set.TGDs[ti]
	frontier, body := t.FrontierVars(), t.BodyVars()
	s.triggers, s.slab = s.triggers[:0], s.slab[:0]
	hom.Enumerate(t.Body, s.inst, nil, func(h term.Subst) bool {
		// Stop collecting on cancellation: the partial trigger list is
		// never fired, because tgdPass polls before every firing.
		if len(s.triggers)%64 == 63 && stop.Cancelled(s.opt.Cancel) {
			return false
		}
		var trig trigger
		s.slab, trig.frontier = appendImages(s.slab, h, frontier)
		if s.opt.Oblivious {
			s.slab, trig.body = appendImages(s.slab, h, body)
		}
		for _, b := range t.Body {
			if dep := int(s.depth[s.inst.SlotOf(b.Pred, s.applyArgs(b, h))]); dep > trig.depth {
				trig.depth = dep
			}
		}
		s.triggers = append(s.triggers, trig)
		return true
	})
	return s.triggers
}

// appendImages appends the images of vars under h to slab and returns
// the grown slab with the appended window, capped so that nothing can
// append through it into the slab.
func appendImages(slab []term.Term, h term.Subst, vars []term.Term) ([]term.Term, []term.Term) {
	start := len(slab)
	for _, v := range vars {
		slab = append(slab, h.Resolve(v))
	}
	return slab, slab[start:len(slab):len(slab)]
}

// bindFrontier binds tgd ti's frontier variables to images in the
// scratch substitution, dropping whatever the previous trigger bound.
func (s *state) bindFrontier(ti int, images []term.Term) term.Subst {
	clear(s.scratch)
	for i, v := range s.set.TGDs[ti].FrontierVars() {
		s.scratch[v] = images[i]
	}
	return s.scratch
}

// headSatisfied reports whether tgd ti's head already holds under the
// frontier images (the restricted-chase applicability test).
func (s *state) headSatisfied(ti int, frontier []term.Term) bool {
	return hom.Exists(s.set.TGDs[ti].Head, s.inst, s.bindFrontier(ti, frontier))
}

// fire adds tgd ti's head atoms under the frontier images, with fresh
// nulls for the existential variables.
func (s *state) fire(ti int, frontier []term.Term, depth int) {
	t := s.set.TGDs[ti]
	sub := s.bindFrontier(ti, frontier)
	for _, z := range t.ExistentialVars() {
		sub[z] = s.newNull()
	}
	var step *Step
	if s.opt.Trace {
		step = &Step{TGD: ti}
	}
	for _, h := range t.Head {
		a := instance.Atom{Pred: h.Pred, Args: s.applyArgs(h, sub)}
		sl, added, err := s.inst.AddSlot(a)
		if err != nil {
			panic(fmt.Sprintf("chase: internal error adding %s: %v", a, err))
		}
		if added {
			s.lowerDepth(sl, int32(depth))
			if step != nil {
				step.Added = append(step.Added, a.Clone())
			}
		}
	}
	if step != nil {
		s.trace = append(s.trace, *step)
	}
	s.steps++
	s.stats.TriggersFired++
}

// egdFixpoint applies egds until none is applicable, identifying terms.
func (s *state) egdFixpoint() error {
	for {
		if stop.Cancelled(s.opt.Cancel) {
			return stop.ErrCancelled
		}
		applied, err := s.egdStep()
		if err != nil {
			return err
		}
		if !applied {
			return nil
		}
	}
}

// soft reports whether t may be renamed by an egd: nulls always, frozen
// query constants when FreezeAsNulls is set.
func (s *state) soft(t term.Term) bool {
	if t.IsNull() {
		return true
	}
	return s.opt.FreezeAsNulls && cq.IsFrozenConst(t)
}

func (s *state) egdStep() (bool, error) {
	for _, e := range s.set.EGDs {
		var a, b term.Term
		found := false
		hom.Enumerate(e.Body, s.inst, nil, func(h term.Subst) bool {
			x, y := h.Resolve(e.X), h.Resolve(e.Y)
			if x == y {
				return true
			}
			a, b = x, y
			found = true
			return false
		})
		if !found {
			continue
		}
		switch {
		case !s.soft(a) && !s.soft(b):
			return false, fmt.Errorf("%w: %s = %s", ErrFailed, a, b)
		case s.soft(a) && !s.soft(b):
			s.replace(a, b)
		case !s.soft(a) && s.soft(b):
			s.replace(b, a)
		default:
			// Both soft: prefer keeping frozen constants over nulls so
			// query heads survive; otherwise keep the first in softOrder
			// for determinism.
			switch {
			case cq.IsFrozenConst(a) && !cq.IsFrozenConst(b):
				s.replace(b, a)
			case cq.IsFrozenConst(b) && !cq.IsFrozenConst(a):
				s.replace(a, b)
			case softOrder(a, b) <= 0:
				s.replace(b, a)
			default:
				s.replace(a, b)
			}
		}
		return true, nil
	}
	return false, nil
}

// softOrder orders two soft terms of one kind. Two nulls compare by
// name length first, so the minted names "n" + counter order as their
// counters do: the null a run minted first is kept whatever the counter
// stood at, and a Runner's reused names order as a fresh run's do.
func softOrder(a, b term.Term) int {
	if a.IsNull() && len(a.Name) != len(b.Name) {
		return len(a.Name) - len(b.Name)
	}
	return a.Compare(b)
}

// replace rewrites old→new everywhere, maintaining merges and depths.
func (s *state) replace(old, new term.Term) {
	s.stats.Merges++
	if s.opt.Trace {
		s.trace = append(s.trace, Step{TGD: -1, Merged: [2]term.Term{old, new}})
	}
	// Atoms mentioning old will be rewritten; carry depths over by
	// slot, keeping the minimum on collision. ReplaceTerm frees their
	// slots, so they are unset first.
	type moved struct {
		atom  instance.Atom
		depth int32
	}
	var affected []moved
	s.atoms = s.inst.AppendAtomsUnordered(s.atoms[:0])
	for _, a := range s.atoms {
		if slices.Contains(a.Args, old) {
			sl := s.inst.SlotOf(a.Pred, a.Args)
			affected = append(affected, moved{a, s.depth[sl]})
			s.depth[sl] = unsetDepth
		}
	}
	s.inst.ReplaceTerm(old, new)
	for _, m := range affected {
		s.args = s.args[:0]
		for _, t := range m.atom.Args {
			if t == old {
				t = new
			}
			s.args = append(s.args, t)
		}
		s.lowerDepth(s.inst.SlotOf(m.atom.Pred, s.args), m.depth)
	}
	// Update the merge substitution: old ↦ new, and re-point anything
	// that previously mapped to old. Iterate the domain in canonical
	// order — the per-key rewrites are independent, but deterministic
	// packages never range over a map raw (semalint: detmap).
	for _, k := range s.merges.Domain() {
		if s.merges[k] == old {
			s.merges[k] = new
		}
	}
	s.merges[old] = new
}

// Satisfies reports whether db ⊨ Σ: every tgd's certain head holds for
// every body match, and no egd is violated. Rigid-constant egd clashes
// count as violations.
func Satisfies(db *instance.Instance, set *deps.Set) bool {
	ok := true
	f := term.NewSubst()
	for _, t := range set.TGDs {
		frontier := t.FrontierVars()
		hom.Enumerate(t.Body, db, nil, func(h term.Subst) bool {
			clear(f)
			for _, v := range frontier {
				f[v] = h.Resolve(v)
			}
			if !hom.Exists(t.Head, db, f) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	for _, e := range set.EGDs {
		hom.Enumerate(e.Body, db, nil, func(h term.Subst) bool {
			if h.Resolve(e.X) != h.Resolve(e.Y) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}
