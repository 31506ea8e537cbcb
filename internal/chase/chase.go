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
	"strconv"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// ErrFailed reports a failing egd chase: an egd tried to equate two
// distinct rigid constants.
var ErrFailed = errors.New("chase: egd chase failed (constant clash)")

// ErrCancelled reports a chase aborted via Options.Cancel. Callers that
// need layer-specific cancellation errors (core wraps this into its own
// ErrCancelled) should test with errors.Is.
var ErrCancelled = errors.New("chase: cancelled")

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
	// closed (or receives); Run then returns ErrCancelled. The channel
	// is polled before every trigger firing, every egd application and
	// every few collected triggers, so cancellation latency is bounded
	// by one chase step, not one fixpoint round.
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
	// Depth maps each atom key to its derivation depth.
	Depth map[string]int
	// Trace lists the chase steps in order when Options.Trace was set.
	Trace []Step
	// Stats holds the always-on run counters (rounds, triggers, nulls,
	// merges). Unlike Trace these cost a handful of integer increments,
	// so they are collected unconditionally; with Trace on, TriggersFired
	// equals the number of tgd entries and Merges the number of merge
	// entries in the trace.
	Stats obs.ChaseStats
}

// Run chases db with the dependency set under the given options. The
// input database is not modified. An egd clash of rigid constants
// returns ErrFailed (wrapped), per the paper's "failure" outcome.
func Run(db *instance.Instance, set *deps.Set, opt Options) (*Result, error) {
	return run(db.Clone(), set, opt)
}

// run chases inst in place: the result's Instance is inst itself.
func run(inst *instance.Instance, set *deps.Set, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	st := &state{
		inst:    inst,
		set:     set,
		opt:     opt,
		merges:  term.NewSubst(),
		depth:   make(map[string]int),
		vars:    make([]tgdVars, len(set.TGDs)),
		scratch: term.NewSubst(),
	}
	for i, t := range set.TGDs {
		st.vars[i] = tgdVars{frontier: t.FrontierVars(), body: t.BodyVars(), existential: t.ExistentialVars()}
	}
	for _, a := range st.inst.AtomsUnordered() {
		st.depth[a.Key()] = 0
	}
	if err := st.run(); err != nil {
		return nil, err
	}
	st.stats.Atoms = st.inst.Len()
	st.stats.Complete = st.complete
	obs.ChaseRuns.Add(1)
	obs.ChaseRounds.Add(int64(st.stats.Rounds))
	obs.ChaseTriggersFired.Add(int64(st.stats.TriggersFired))
	obs.ChaseNulls.Add(int64(st.stats.NullsCreated))
	obs.ChaseMerges.Add(int64(st.stats.Merges))
	return &Result{
		Instance: st.inst,
		Complete: st.complete,
		Steps:    st.steps,
		Merges:   st.merges,
		Depth:    st.depth,
		Trace:    st.trace,
		Stats:    st.stats,
	}, nil
}

// Query chases the query q per Lemma 1: variables are frozen to the
// constants c(x), the resulting database is chased, and the frozen head
// tuple — adjusted for any egd merges — is returned with the result.
// When the set contains egds the frozen constants are treated as nulls,
// per the paper's convention.
func Query(q *cq.CQ, set *deps.Set, opt Options) (*Result, []term.Term, error) {
	db, frozen := q.Freeze()
	if len(set.EGDs) > 0 {
		opt.FreezeAsNulls = true
	}
	// db is this call's own: chase it in place rather than a clone.
	res, err := run(db, set, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, res.Merges.ResolveTuple(frozen), nil
}

type state struct {
	inst     *instance.Instance
	set      *deps.Set
	opt      Options
	steps    int
	complete bool
	merges   term.Subst
	depth    map[string]int
	trace    []Step
	stats    obs.ChaseStats
	// fired remembers body-homomorphism fingerprints for the oblivious
	// chase so each trigger fires at most once; fpBuf builds them.
	fired map[string]bool
	fpBuf []byte
	// vars holds each tgd's variable lists, computed once per run.
	vars []tgdVars
	// scratch is the one substitution the single-writer firing loop
	// binds a trigger's frontier (and then its nulls) into.
	scratch term.Subst
}

// tgdVars are a tgd's frontier, body and existential variables, each
// in first-occurrence order.
type tgdVars struct {
	frontier, body, existential []term.Term
}

// cancelled polls the cancel channel without blocking (a nil channel
// never fires, so the poll is a no-op select for unconfigured runs).
func (s *state) cancelled() bool {
	select {
	case <-s.opt.Cancel:
		return true
	default:
		return false
	}
}

func (s *state) run() error {
	if s.opt.Oblivious {
		s.fired = make(map[string]bool)
	}
	truncated := false
	for {
		if s.cancelled() {
			return ErrCancelled
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
			if s.cancelled() {
				return progressed, truncated, ErrCancelled
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
// depth. It only reads the instance, the depth map and the tgd's
// variable lists.
func (s *state) collectTriggers(ti int) []trigger {
	t, tv := s.set.TGDs[ti], &s.vars[ti]
	var out []trigger
	var slab []term.Term
	var keyBuf []byte
	hom.Enumerate(t.Body, s.inst, nil, func(h term.Subst) bool {
		// Stop collecting on cancellation: the partial trigger list is
		// never fired, because tgdPass polls before every firing.
		if len(out)%64 == 63 && s.cancelled() {
			return false
		}
		var trig trigger
		slab, trig.frontier = appendImages(slab, h, tv.frontier)
		if s.opt.Oblivious {
			slab, trig.body = appendImages(slab, h, tv.body)
		}
		for _, b := range t.Body {
			keyBuf = b.AppendKeyApplied(keyBuf[:0], h)
			if dep, ok := s.depth[string(keyBuf)]; ok && dep > trig.depth {
				trig.depth = dep
			}
		}
		out = append(out, trig)
		return true
	})
	return out
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
	for i, v := range s.vars[ti].frontier {
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
	for _, z := range s.vars[ti].existential {
		sub[z] = term.FreshNull()
		s.stats.NullsCreated++
	}
	var step *Step
	if s.opt.Trace {
		step = &Step{TGD: ti}
	}
	for _, h := range t.Head {
		a := h.Apply(sub)
		added, err := s.inst.AddReport(a)
		if err != nil {
			panic(fmt.Sprintf("chase: internal error adding %s: %v", a, err))
		}
		if added {
			s.depth[a.Key()] = depth
			if step != nil {
				step.Added = append(step.Added, a)
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
		if s.cancelled() {
			return ErrCancelled
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
			// query heads survive; otherwise keep the smaller name for
			// determinism.
			switch {
			case cq.IsFrozenConst(a) && !cq.IsFrozenConst(b):
				s.replace(b, a)
			case cq.IsFrozenConst(b) && !cq.IsFrozenConst(a):
				s.replace(a, b)
			case a.Compare(b) <= 0:
				s.replace(b, a)
			default:
				s.replace(a, b)
			}
		}
		return true, nil
	}
	return false, nil
}

// replace rewrites old→new everywhere, maintaining merges and depths.
func (s *state) replace(old, new term.Term) {
	s.stats.Merges++
	if s.opt.Trace {
		s.trace = append(s.trace, Step{TGD: -1, Merged: [2]term.Term{old, new}})
	}
	// Atoms mentioning old will be rewritten; carry depths over,
	// keeping the minimum on collision.
	var affected []instance.Atom
	for _, a := range s.inst.AtomsUnordered() {
		for _, t := range a.Args {
			if t == old {
				affected = append(affected, a)
				break
			}
		}
	}
	oldDepths := make(map[string]int, len(affected))
	for _, a := range affected {
		oldDepths[a.Key()] = s.depth[a.Key()]
		delete(s.depth, a.Key())
	}
	s.inst.ReplaceTerm(old, new)
	for _, a := range affected {
		na := a.Clone()
		for i := range na.Args {
			if na.Args[i] == old {
				na.Args[i] = new
			}
		}
		k := na.Key()
		d, had := s.depth[k]
		od := oldDepths[a.Key()]
		if !had || od < d {
			s.depth[k] = od
		}
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
