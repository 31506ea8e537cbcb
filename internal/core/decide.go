// Package core implements the paper's primary contribution: deciding
// semantic acyclicity of conjunctive queries under constraints
// (SemAc(C), Section 3), computing acyclic witnesses and maximally
// contained acyclic approximations (§8.2), the UCQ variant (§8.1), and
// the evaluation algorithms for semantically acyclic queries
// (Proposition 24 and Theorem 25).
//
// Decide runs a layered, certificate-producing procedure (DESIGN.md §3):
//
//  1. no-constraint fast path — core(q) acyclic;
//  2. quotient/subquery search — homomorphic collapses and atom-subsets
//     of q, verified equivalent under Σ;
//  3. chase-guided candidates — acyclic connected subsets of a bounded
//     chase(q,Σ);
//
// then the shape layer — on schemas of arity ≤ 2 in a class with a
// witness bound, the acyclic quotients of core(q), or of each disjunct
// of q's UCQ rewriting, which the proofs of Propositions 8 and 15 show
// suffice (shape.go);
//
//  4. complete bounded enumeration up to the class's small-query bound
//     (2·|q| for acyclicity-preserving-chase classes, Proposition 8;
//     2·f_C(q,Σ) for UCQ-rewritable classes, Proposition 15), budgeted.
//
// Every YES carries a verified acyclic witness. A NO is definitive only
// when the shape layer checked every quotient definitively, or the
// complete layer exhausted the bound, without hitting a budget.
package core

import (
	"fmt"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/obs"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
)

// Verdict is the outcome of a SemAc decision.
type Verdict int

// Verdict values.
const (
	// No: q is not equivalent to any acyclic CQ under Σ (definitive
	// only when Result.Definitive).
	No Verdict = iota
	// Yes: an acyclic witness was found and verified.
	Yes
	// Unknown: budgets were exhausted before a definitive answer.
	Unknown
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// Options tunes Decide. The zero value picks defaults suited to
// paper-scale queries.
type Options struct {
	// Containment tunes the underlying Cont(C) checks.
	Containment containment.Options
	// SearchBudget caps the number of candidate queries examined per
	// layer (default 20000).
	SearchBudget int
	// SkipCompleteSearch disables layer 4 (the exhaustive enumerator);
	// a miss then yields Unknown rather than a definitive No, unless the
	// shape layer, which runs either way, settled the decision.
	SkipCompleteSearch bool
	// Cancel, when non-nil, aborts the decision as soon as the channel
	// is closed (or receives); Decide then returns stop.ErrCancelled.
	// Wire a context's Done() channel here for deadline/cancellation
	// support. The channel is propagated into every layer — the chase
	// apply loop, the quotient/subquery searches, the layer-4
	// enumeration, the containment chases and the sticky UCQ
	// rewriting — so cancellation latency is bounded by one chase step
	// (or one rewriting step), not one decision layer.
	Cancel <-chan struct{}
	// DisableSearchMemo turns off the complete search's candidate memo
	// and the hoisted containment checkers of both directions, so every
	// verification re-derives its verdict, chase(q,Σ) or D_q on the left
	// and the rewriting of q on the right: q ≡Σ w runs
	// containment.Equivalent, and q ⊆Σ w alone a one-shot
	// containment.Contains. A reference and debugging knob: every hoist
	// is of a pure function, so the decision is identical either way —
	// only the cost changes.
	DisableSearchMemo bool
	// Trace, when non-nil, receives a span per pipeline stage (the
	// decision, each layer, and — inside the first layer that needs
	// them — the one chase of q and the containment preparation).
	// Candidate checks open no spans, so the span-tree *structure*
	// (names and nesting) is a function of the input; only the recorded
	// durations are nondeterministic. A nil Trace is free: the hooks are
	// no-ops that allocate nothing.
	Trace *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.SearchBudget <= 0 {
		o.SearchBudget = 20000
	}
	if o.Cancel != nil {
		// Propagate cancellation into the sub-engines unless the caller
		// wired those budgets explicitly: every containment chase, the
		// layer pruning chases (which copy Containment.Chase) and the
		// sticky rewriting then poll the same channel.
		if o.Containment.Chase.Cancel == nil {
			o.Containment.Chase.Cancel = o.Cancel
		}
		if o.Containment.Rewrite.Cancel == nil {
			o.Containment.Rewrite.Cancel = o.Cancel
		}
	}
	if o.Trace != nil && o.Containment.Trace == nil {
		o.Containment.Trace = o.Trace
	}
	return o
}

// Result reports a SemAc decision.
type Result struct {
	Verdict Verdict
	// Witness is a verified acyclic CQ with q ≡Σ Witness (Yes only).
	Witness *cq.CQ
	// Definitive reports whether the verdict is exact: Yes always is;
	// No requires the shape layer to have checked every quotient
	// definitively, or the complete search to have exhausted the bound.
	Definitive bool
	// Layer names the procedure layer that settled the answer.
	Layer string
	// Bound is the small-query bound applied (0 if not applicable).
	Bound int
	// Candidates counts queries examined across layers.
	Candidates int
	// Stats is the decision's observability snapshot; Decide always
	// fills it. Collection is passive: the verdict, witness and
	// determinism contract never depend on it.
	Stats *obs.Stats
}

// Decide determines whether q is semantically acyclic under the set.
func Decide(q *cq.CQ, set *deps.Set, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	st := obs.NewStats()
	sw := telemetry.StartTimer()
	snap := obs.TakeSnapshot()
	sp := opt.Trace.Start("decide")
	res, err := decide(q, set, opt, st)
	sp.End()
	if err != nil {
		return nil, err
	}
	obs.Decisions.Add(1)
	st.WallNS = sw.ElapsedNS()
	st.Hom = snap.HomDelta()
	res.Stats = st
	return res, nil
}

// decide is the layered procedure; st receives per-layer records as
// each layer completes.
func decide(q *cq.CQ, set *deps.Set, opt Options, st *obs.Stats) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if set == nil {
		set = &deps.Set{}
	}
	// Each layer gets a stopwatch segment (for LayerStats.WallNS) and,
	// when tracing, a "layer:<name>" span. beginLayer/record are always
	// paired, so the span nesting follows the layers that ran.
	layerSW := telemetry.StartTimer()
	var layerSpan *telemetry.Span
	beginLayer := func(name string) {
		layerSpan = opt.Trace.Start("layer:" + name)
	}
	record := func(name string, candidates int) {
		layerSpan.End()
		layerSpan = nil
		st.AddLayer(name, candidates, layerSW.ElapsedNS())
		layerSW = telemetry.StartTimer()
	}

	// Layer 1: the classical no-constraint criterion. Sound under any
	// Σ: if core(q) is acyclic then q ≡ core(q) ≡Σ core(q).
	beginLayer("core")
	c, err := hom.CoreCancel(q, opt.Cancel)
	if err != nil {
		return nil, err
	}
	if hypergraph.IsAcyclic(c.Atoms) {
		record("core", 1)
		return &Result{Verdict: Yes, Witness: c, Definitive: true, Layer: "core", Candidates: 1}, nil
	}
	if set.Len() == 0 {
		// Without constraints, semantic acyclicity ⇔ core acyclic.
		record("core", 1)
		return &Result{Verdict: No, Definitive: true, Layer: "core", Candidates: 1}, nil
	}
	record("core", 1)

	// The verifier owns what the later layers derive from (q, Σ): the
	// chase of q and the containment checker, each built at first need.
	v := newVerifier(q, set, opt)
	defer v.recordChecks(st)

	// Σ-unsatisfiable queries (failing egd chase) are equivalent to any
	// acyclic Σ-unsatisfiable query; handle them before the chase-based
	// layers, which cannot reason via Lemma 1 without a chase.
	beginLayer("unsatisfiable")
	if res, handled, err := decideUnsatisfiable(q, set, v); err != nil {
		return nil, err
	} else if handled {
		record("unsatisfiable", res.Candidates)
		return res, nil
	}
	record("unsatisfiable", 0)

	bound := witnessBound(q, set)
	res := &Result{Bound: bound}

	// Layer 2: quotients and subqueries of q.
	beginLayer("quotient")
	if w, n, err := searchQuotients(q, v, opt); err != nil {
		return nil, err
	} else {
		res.Candidates += n
		record("quotient", n)
		if w != nil {
			if res.Witness, err = polishWitness(w, opt.Cancel); err != nil {
				return nil, err
			}
			res.Verdict, res.Definitive, res.Layer = Yes, true, "quotient"
			return res, nil
		}
	}

	// Layer 3: acyclic connected subsets of the (bounded) chase of q.
	beginLayer("chase-subset")
	if w, n, err := searchChaseSubsets(q, v, opt, bound); err != nil {
		return nil, err
	} else {
		res.Candidates += n
		record("chase-subset", n)
		if w != nil {
			if res.Witness, err = polishWitness(w, opt.Cancel); err != nil {
				return nil, err
			}
			res.Verdict, res.Definitive, res.Layer = Yes, true, "chase-subset"
			return res, nil
		}
	}

	// The shape layer: on arity-≤2 schemas the proofs' witness shape
	// leaves finitely many quotients to check.
	if class, err := shapeClass(v); err != nil {
		return nil, err
	} else if class != classNone {
		beginLayer("shape")
		w, n, settled, err := searchShape(c, class, v, opt)
		if err != nil {
			return nil, err
		}
		res.Candidates += n
		record("shape", n)
		if w != nil {
			if res.Witness, err = polishWitness(w, opt.Cancel); err != nil {
				return nil, err
			}
			res.Verdict, res.Definitive, res.Layer = Yes, true, "shape"
			return res, nil
		}
		if settled {
			res.Verdict, res.Definitive, res.Layer = No, true, "shape"
			return res, nil
		}
	}

	// Layer 4: complete bounded enumeration.
	if !opt.SkipCompleteSearch && bound > 0 {
		beginLayer("complete")
		w, n, exhausted, err := searchComplete(q, set, v, opt, bound, st)
		if err != nil {
			return nil, err
		}
		res.Candidates += n
		// The layer record uses the DETERMINISTIC decisive count — -1
		// sentinel included; the raw examined count stays in
		// Search.CandidatesObserved.
		record("complete", st.Search.Candidates)
		if w != nil {
			if res.Witness, err = polishWitness(w, opt.Cancel); err != nil {
				return nil, err
			}
			res.Verdict, res.Definitive, res.Layer = Yes, true, "complete"
			return res, nil
		}
		if exhausted {
			res.Verdict, res.Definitive, res.Layer = No, true, "complete"
			return res, nil
		}
	}

	res.Verdict, res.Definitive, res.Layer = Unknown, false, "budget"
	if bound == 0 {
		// Outside the decidable classes there is no witness bound at
		// all (Theorem 7: undecidable already for full tgds).
		res.Layer = "undecidable-class"
	}
	return res, nil
}

// witnessClass names the proof that bounds the witnesses of (q, Σ).
type witnessClass int

const (
	// classNone: outside the classes with a proven bound.
	classNone witnessClass = iota
	// classAPC: an acyclicity-preserving chase (Proposition 8); every
	// witness is g(q) plus at most |q| atoms (Lemma 9).
	classAPC
	// classRewritable: UCQ-rewritable (Proposition 15); every witness
	// is g(p) plus at most |p| atoms, p a disjunct of q's rewriting.
	classRewritable
)

// classify returns the class witnessBound and the shape layer read.
func classify(q *cq.CQ, set *deps.Set) witnessClass {
	switch {
	case set.PureTGDs() && set.IsGuarded():
		return classAPC // Proposition 8 via Proposition 12
	case set.PureEGDs() && (set.IsK2() || set.IsUnaryFDs()) && maxAritySigma(q, set) <= 2:
		// Proposition 22 / Theorem 23: the acyclicity-preserving-chase
		// argument needs the WHOLE signature unary/binary — Example 4
		// breaks it with a ternary predicate under a binary key. The
		// unary-FD extension [17] is proved for unconstrained
		// signatures, but without a published small-witness bound we
		// only claim 2·|q| where the K2 argument applies.
		return classAPC
	case set.PureTGDs() && (set.IsNonRecursive() || set.IsSticky()):
		return classRewritable // Propositions 15/17/19
	default:
		return classNone
	}
}

// witnessBound returns the class-derived small-query bound, or 0 when
// the set lies outside the classes with a proven bound.
func witnessBound(q *cq.CQ, set *deps.Set) int {
	switch classify(q, set) {
	case classAPC:
		return 2 * q.Size()
	case classRewritable:
		return 2 * rewrite.HeightBound(q, set)
	default:
		return 0
	}
}

// maxAritySigma returns the largest predicate arity across the query
// and the dependency set.
func maxAritySigma(q *cq.CQ, set *deps.Set) int {
	m := q.Schema().MaxArity()
	if a := set.Schema().MaxArity(); a > m {
		m = a
	}
	return m
}

// polishWitness minimizes a verified witness: the core is plainly
// equivalent, so it remains a witness — but a subset of an acyclic
// atom set is not always acyclic (dropping a guard can re-expose a
// cycle), so the core is kept only when it stays acyclic. The core
// search polls cancel.
func polishWitness(w *cq.CQ, cancel <-chan struct{}) (*cq.CQ, error) {
	c, err := hom.CoreCancel(w, cancel)
	if err != nil {
		return nil, err
	}
	if hypergraph.IsAcyclic(c.Atoms) {
		return c, nil
	}
	return w, nil
}

// verifier owns what a decision derives from its fixed (q, Σ) and
// checks candidate witnesses w for q ≡Σ w. It chases q once, at first
// need, under the layers' one chase budget (chaseQuery): the
// unsatisfiability test, layer 3, the shape layer (shapeClass) and
// layer 4 read that result. Each direction of q ≡Σ w keeps one side
// fixed for every candidate, so the verifier builds one checker per
// direction at the first verification that needs it. For w ⊆Σ q,
// which layers 2 and 3, the shape layer and layer 4 check,
// containment.Prepare hoists q's rewriting, and one chase.Runner
// freezes and chases the candidates. For q ⊆Σ w, which layers 2 and 3
// and the shape layer check, containment.PrepareLeft freezes D_q once,
// keeps chase(q,Σ) per depth budget and rewrites the candidates in one
// rewrite.Rewriter. A verifier belongs to one decision and is not safe
// for concurrent use.
type verifier struct {
	q   *cq.CQ
	set *deps.Set
	opt Options
	// copt is the layers' chase budget: opt.Containment.Chase, with
	// MaxDepth |q| + |TGDs| + 2 and MaxSteps 2,000 unless the caller
	// set either. It keeps the chase pool small: candidates only need
	// to cover reformulations reachable within a few derivation steps.
	copt chase.Options
	// chased reports that chase(q,Σ) ran; chaseRes, chaseFrozen and
	// chaseErr are what chase.Query returned.
	chased      bool
	chaseRes    *chase.Result
	chaseFrozen []term.Term
	chaseErr    error
	// checker is the decision's w ⊆Σ q checker, nil until needed.
	checker *containment.Prepared
	// runner freezes and chases the candidates of layers 2 and 3, the
	// shape layer and layer 4 in w ⊆Σ q.
	runner chase.Runner
	// left is the decision's q ⊆Σ w checker, nil until needed.
	left *containment.PreparedLeft
}

// newVerifier resolves the containment method and the chase budget
// once for the decision: Σ's class does not change between candidates,
// so both checkers and the DisableSearchMemo arm run the method
// SelectMethod picks here without classifying Σ again.
func newVerifier(q *cq.CQ, set *deps.Set, opt Options) *verifier {
	opt.Containment.Method = containment.SelectMethod(set, opt.Containment)
	copt := opt.Containment.Chase
	if copt.MaxDepth <= 0 && copt.MaxSteps <= 0 {
		copt.MaxDepth = q.Size() + len(set.TGDs) + 2
		copt.MaxSteps = 2000
	}
	return &verifier{q: q, set: set, opt: opt, copt: copt}
}

// chaseQuery returns chase(q,Σ) under the layers' budget and q's
// frozen head tuple, chasing inside a "chase" span on first use. Its
// error is chase.Query's: chase.ErrFailed when an egd fails,
// stop.ErrCancelled when the decision was cancelled.
func (v *verifier) chaseQuery() (*chase.Result, []term.Term, error) {
	if !v.chased {
		sp := v.opt.Trace.Start("chase")
		v.chaseRes, v.chaseFrozen, v.chaseErr = chase.Query(v.q, v.set, v.copt)
		sp.End()
		v.chased = true
	}
	return v.chaseRes, v.chaseFrozen, v.chaseErr
}

// prepared returns the decision's containment checker for the fixed
// right-hand side q, preparing it on first use: for sticky sets this
// hoists the exponential UCQ rewriting out of the per-candidate loop.
func (v *verifier) prepared() (*containment.Prepared, error) {
	if v.checker == nil {
		checker, err := containment.Prepare(v.q, v.set, v.opt.Containment)
		if err != nil {
			return nil, err
		}
		v.checker = checker
	}
	return v.checker, nil
}

// recordChecks records how many checks the decision's checker served,
// whichever layer settled the decision; a decision that built none
// records nothing.
func (v *verifier) recordChecks(st *obs.Stats) {
	if v.checker != nil {
		st.Containment.PreparedChecks = v.checker.Checks()
	}
}

// verifyWitness checks q ≡Σ w. It returns whether the equivalence
// holds (only definitive positives count) and whether the answer was
// definitive — a non-definitive rejection means a budget may have
// hidden a witness, which exhaustion claims must account for.
//
// q ⊆Σ w runs the left checker (containedIn) and w ⊆Σ q the right one,
// and each direction first tries plain Chandra–Merlin containment: it
// implies containment under any Σ, where every procedure answers
// holds, definitively. The answer is therefore the one
// containment.Equivalent gives, which DisableSearchMemo still runs, as
// the unhoisted reference.
func (v *verifier) verifyWitness(w *cq.CQ) (holds, definitive bool, err error) {
	if v.opt.DisableSearchMemo {
		dec, err := containment.Equivalent(v.q, w, v.set, v.opt.Containment)
		if err != nil {
			return false, false, err
		}
		return dec.Holds && dec.Definitive, dec.Definitive, nil
	}
	a, err := v.containedIn(w)
	if err != nil || !a.Holds {
		return false, a.Definitive, err
	}
	b := containment.Decision{Holds: true, Definitive: true}
	if !v.plainContained(w) {
		checker, err := v.prepared()
		if err != nil {
			return false, false, err
		}
		if b, err = checker.Check(w, &v.runner, v.opt.Containment.Chase.Cancel); err != nil {
			return false, false, err
		}
	}
	definitive = a.Definitive && b.Definitive
	return b.Holds && definitive, definitive, nil
}

// containedIn decides q ⊆Σ w, the direction of verifyWitness that the
// shape layer also runs alone, in the decision's left checker, built at
// first need. DisableSearchMemo runs the one-shot containment.Contains
// instead, which answers the same.
func (v *verifier) containedIn(w *cq.CQ) (containment.Decision, error) {
	if v.opt.DisableSearchMemo {
		return containment.Contains(v.q, w, v.set, v.opt.Containment)
	}
	if v.left == nil {
		v.left = containment.PrepareLeft(v.q, v.set, v.opt.Containment)
	}
	return v.left.Check(w, v.opt.Containment.Chase.Cancel)
}

// rewriting returns q's UCQ rewriting under Σ, which the shape layer
// reads for the UCQ-rewritable classes: the checker's own when the
// selected method rewrites (sticky sets), else one Rewrite call with
// the same options, its disjuncts capped at the search budget, since
// the layer cannot examine more sources than that. Both memo arms
// apply the same rule, so they read the same rewriting.
func (v *verifier) rewriting() (*rewrite.Result, error) {
	ropt := v.opt.Containment.Rewrite
	if v.opt.Containment.Method == containment.MethodRewrite {
		if !v.opt.DisableSearchMemo {
			checker, err := v.prepared()
			if err != nil {
				return nil, err
			}
			return checker.Rewriting(), nil
		}
	} else if ropt.MaxDisjuncts <= 0 || ropt.MaxDisjuncts > v.opt.SearchBudget {
		ropt.MaxDisjuncts = v.opt.SearchBudget
	}
	return rewrite.Rewrite(v.q, v.set, ropt)
}

// plainContained is hom.Contained(w, q), with w frozen in the
// verifier's runner.
func (v *verifier) plainContained(w *cq.CQ) bool {
	if len(w.Free) != len(v.q.Free) {
		return false
	}
	db, frozen := v.runner.Freeze(w)
	return hom.HasTuple(v.q, db, frozen)
}
