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
//  4. complete bounded enumeration up to the class's small-query bound
//     (2·|q| for acyclicity-preserving-chase classes, Proposition 8;
//     2·f_C(q,Σ) for UCQ-rewritable classes, Proposition 15), budgeted.
//
// Every YES carries a verified acyclic witness. A NO is definitive only
// when the complete layer exhausted the bound without hitting a budget.
package core

import (
	"fmt"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
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
	// MaxWitnessSize overrides the class-derived small-query bound.
	MaxWitnessSize int
	// SkipCompleteSearch disables layer 4 (the exhaustive enumerator);
	// a miss then yields Unknown rather than a definitive No.
	SkipCompleteSearch bool
	// Cancel, when non-nil, aborts the decision as soon as the channel
	// is closed (or receives); Decide then returns stop.ErrCancelled.
	// Wire a context's Done() channel here for deadline/cancellation
	// support. The channel is propagated into every layer — the chase
	// apply loop, the quotient/subquery searches, the parallel branch
	// workers' enumeration, the containment chases and the sticky UCQ
	// rewriting — so cancellation latency is bounded by one chase step
	// (or one rewriting step), not one decision layer.
	Cancel <-chan struct{}
	// Parallelism bounds the worker goroutines used by the layer-4
	// complete search (branch fan-out) and by DecideUCQ (independent
	// disjunct decisions). 0 means one worker per logical CPU
	// (GOMAXPROCS); 1 restores the exact sequential behavior. Results
	// are deterministic for every value: the canonically least witness
	// wins regardless of scheduling.
	Parallelism int
	// DisableSearchMemo turns off the shared memoization caches of the
	// complete search (prefix-pruning and candidate-containment
	// verdicts). A benchmarking/debugging knob: the caches memoize pure
	// functions, so the decision is identical either way — only the
	// cost changes.
	DisableSearchMemo bool
	// Trace, when non-nil, receives a span per pipeline stage (the
	// decision, each layer, and — inside the first layer that needs
	// them — the one chase of q and the containment preparation).
	// Spans are opened only from the sequential coordinator code — never
	// from parallel branch workers — so the span-tree *structure* (names
	// and nesting) is identical at every Parallelism value; only the
	// recorded durations are nondeterministic. A nil Trace is free: the
	// hooks are no-ops that allocate nothing.
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
	// No requires the complete search to have exhausted the bound.
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
	// paired on the sequential coordinator path, so the span nesting is
	// scheduling-independent.
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

	bound := witnessBound(q, set, opt)
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

	// Layer 4: complete bounded enumeration.
	if !opt.SkipCompleteSearch && bound > 0 {
		beginLayer("complete")
		w, n, exhausted, err := searchComplete(q, set, v, opt, bound, st)
		if err != nil {
			return nil, err
		}
		res.Candidates += n
		// The layer record uses the DETERMINISTIC decisive count — -1
		// sentinel included; the raw examined count is scheduling-
		// dependent and stays in Search.CandidatesObserved.
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

// witnessBound returns the class-derived small-query bound, or 0 when
// the set lies outside the classes with a proven bound.
func witnessBound(q *cq.CQ, set *deps.Set, opt Options) int {
	if opt.MaxWitnessSize > 0 {
		return opt.MaxWitnessSize
	}
	switch {
	case set.PureTGDs() && set.IsGuarded():
		return 2 * q.Size() // Proposition 8 via Proposition 12
	case set.PureEGDs() && (set.IsK2() || set.IsUnaryFDs()) && maxAritySigma(q, set) <= 2:
		// Proposition 22 / Theorem 23: the acyclicity-preserving-chase
		// argument needs the WHOLE signature unary/binary — Example 4
		// breaks it with a ternary predicate under a binary key. The
		// unary-FD extension [17] is proved for unconstrained
		// signatures, but without a published small-witness bound we
		// only claim 2·|q| where the K2 argument applies.
		return 2 * q.Size()
	case set.PureTGDs() && (set.IsNonRecursive() || set.IsSticky()):
		return 2 * rewrite.HeightBound(q, set) // Propositions 15/17/19
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
// unsatisfiability test, layer 3 and layer 4 read that result. The
// right-hand side of w ⊆Σ q is the same for every candidate, so one
// containment checker, built by containment.Prepare at the first
// verification that needs it, serves layers 2, 3 and 4. A verifier
// belongs to one decision and is not safe for concurrent use; layer
// 4's parallel workers share only the checker and the chased instance,
// which they read.
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
	// checker is the decision's containment checker, nil until needed.
	checker *containment.Prepared
	// runner freezes and chases layers 2 and 3's candidates in w ⊆Σ q;
	// layer 4's branches bring their own.
	runner chase.Runner
	// db and frozen are q's frozen instance D_q and head tuple (Lemma
	// 1), built at the first plain q ⊆ w check.
	db     *instance.Instance
	frozen []term.Term
}

// newVerifier resolves the containment method and the chase budget
// once for the decision: Σ's class does not change between candidates,
// so Prepare, every Contains call and the DisableSearchMemo arm run
// the method SelectMethod picks here without classifying Σ again.
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
// q ⊆Σ w runs containment.Contains and w ⊆Σ q the shared checker, and
// each direction first tries plain Chandra–Merlin containment: it
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
	if v.db == nil {
		v.db, v.frozen = v.q.Freeze()
	}
	plain := containment.Decision{Holds: true, Definitive: true}
	a := plain
	if !hom.HasTuple(w, v.db, v.frozen) {
		if a, err = containment.Contains(v.q, w, v.set, v.opt.Containment); err != nil {
			return false, false, err
		}
		if !a.Holds {
			return false, a.Definitive, nil
		}
	}
	b := plain
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

// plainContained is hom.Contained(w, q), with w frozen in the
// verifier's runner.
func (v *verifier) plainContained(w *cq.CQ) bool {
	if len(w.Free) != len(v.q.Free) {
		return false
	}
	db, frozen := v.runner.Freeze(w)
	return hom.HasTuple(v.q, db, frozen)
}
