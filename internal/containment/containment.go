// Package containment decides CQ containment and equivalence under
// constraints (the problem Cont(C) of the paper, Section 2), selecting
// a decision procedure per dependency class:
//
//   - no constraints: plain Chandra–Merlin containment;
//   - egds, or tgd classes with terminating chase (non-recursive,
//     weakly acyclic, full): the chase characterization of Lemma 1;
//   - guarded (possibly non-terminating chase): the depth-budgeted
//     guarded chase — sound always, complete whenever the witness lies
//     within the budget (see DESIGN.md §2 for the substitution note);
//   - sticky: UCQ rewriting of the right-hand query.
//
// Every Decision carries a Definitive flag: positive answers are always
// definitive (both procedures are sound); a negative answer is
// definitive only when no budget truncated the underlying procedure.
package containment

import (
	"errors"
	"fmt"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/obs"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/telemetry"
)

// Method names a containment decision procedure.
type Method string

// Available methods.
const (
	MethodPlain   Method = "plain"         // no constraints
	MethodChase   Method = "chase"         // terminating chase, Lemma 1
	MethodBounded Method = "bounded-chase" // depth-budgeted guarded chase
	MethodRewrite Method = "ucq-rewriting" // backward rewriting (NR, sticky)
)

// Options tunes the decision procedures. Zero values select defaults.
type Options struct {
	// Method forces a procedure; empty selects automatically by class.
	Method Method
	// Chase tunes chase-based methods. For MethodBounded a zero
	// MaxDepth picks a budget derived from the right-hand query and Σ.
	Chase chase.Options
	// Rewrite tunes the rewriting-based method.
	Rewrite rewrite.Options
	// Trace, when non-nil, records a span around Prepare (the hoisted,
	// possibly-exponential right-hand-side work); the Prepared does not
	// keep it. Per-candidate Check calls are deliberately unspanned: a
	// decision runs thousands of them, and the span tree records the
	// stages, not the candidates. Nil is free.
	Trace *telemetry.Recorder
}

// Decision is the outcome of a containment check.
type Decision struct {
	Holds      bool
	Definitive bool
	Method     Method
}

// Contains decides q ⊆Σ q'. See the package comment for the guarantees
// attached to the returned Decision.
func Contains(q, qp *cq.CQ, set *deps.Set, opt Options) (Decision, error) {
	obs.ContainmentChecks.Add(1)
	if len(q.Free) != len(qp.Free) {
		return Decision{Holds: false, Definitive: true, Method: MethodPlain}, nil
	}
	m := SelectMethod(set, opt)
	switch m {
	case MethodPlain:
		return Decision{Holds: hom.Contained(q, qp), Definitive: true, Method: MethodPlain}, nil
	case MethodChase, MethodBounded:
		return chaseContains(q, qp, set, m, opt.Chase, new(chase.Runner))
	case MethodRewrite:
		return rewriteContains(q, qp, set, opt)
	default:
		return Decision{}, fmt.Errorf("containment: unknown method %q", m)
	}
}

// SelectMethod resolves the decision procedure a Contains/Prepare call
// with these options would run: the forced Options.Method when set,
// else the per-class default. Exposed so the observability layer can
// report the method even when no Prepared checker was built.
func SelectMethod(set *deps.Set, opt Options) Method {
	if opt.Method != "" {
		return opt.Method
	}
	return pickMethod(set)
}

// pickMethod selects the default decision procedure for the set.
func pickMethod(set *deps.Set) Method {
	if set == nil || set.Len() == 0 {
		return MethodPlain
	}
	if len(set.EGDs) > 0 {
		// Egd-only and mixed sets go through the chase; the egd chase
		// terminates, and mixed sets are budgeted like MethodChase.
		return MethodChase
	}
	switch {
	case set.IsNonRecursive(), set.IsWeaklyAcyclic(), set.IsFull():
		return MethodChase // terminating chase
	case set.IsGuarded():
		return MethodBounded
	case set.IsSticky():
		return MethodRewrite
	default:
		// Outside every decidable class: the bounded chase is still a
		// sound semi-decision procedure.
		return MethodBounded
	}
}

// chaseContains decides q ⊆Σ q' by chasing q in the runner r.
func chaseContains(q, qp *cq.CQ, set *deps.Set, m Method, copt chase.Options, r *chase.Runner) (Decision, error) {
	if m == MethodBounded && copt.MaxDepth <= 0 {
		copt.MaxDepth = defaultGuardedDepth(qp, set)
	}
	res, frozen, err := r.Query(q, set, copt)
	if errors.Is(err, chase.ErrFailed) {
		// chase(q,Σ) fails ⇒ q is Σ-unsatisfiable ⇒ q(D) = ∅ on every
		// D ⊨ Σ ⇒ q ⊆Σ q' trivially.
		return Decision{Holds: true, Definitive: true, Method: m}, nil
	}
	if err != nil {
		return Decision{}, err
	}
	holds := hom.HasTuple(qp, res.Instance, frozen)
	return Decision{
		Holds:      holds,
		Definitive: holds || res.Complete,
		Method:     m,
	}, nil
}

// defaultGuardedDepth picks the chase depth budget for guarded sets.
// Homomorphism witnesses for a query with k atoms over a guarded chase
// live within a prefix whose depth grows with k and the dependency
// count; the default of k·(|Σ|+2)+2 covers every workload in this
// repository with slack and is overridable via Options.Chase.MaxDepth.
func defaultGuardedDepth(qp *cq.CQ, set *deps.Set) int {
	d := qp.Size()*(len(set.TGDs)+2) + 2
	if d < 4 {
		d = 4
	}
	return d
}

func rewriteContains(q, qp *cq.CQ, set *deps.Set, opt Options) (Decision, error) {
	rw, err := rewrite.Rewrite(qp, set, opt.Rewrite)
	if err != nil {
		return Decision{}, err
	}
	db, frozen := q.Freeze()
	for _, d := range rw.UCQ.Disjuncts {
		if hom.HasTuple(d, db, frozen) {
			return Decision{Holds: true, Definitive: true, Method: MethodRewrite}, nil
		}
	}
	return Decision{Holds: false, Definitive: rw.Complete, Method: MethodRewrite}, nil
}

// Prepared fixes the right-hand query q' of a containment test and
// precomputes everything that does not depend on the left-hand side:
// the method selection, the chase depth budget, and — the expensive one
// — the UCQ rewriting of q' for sticky sets, which is worst-case
// exponential and identical across calls. Check(q, r, cancel) returns
// exactly what Contains(q, q', Σ, opt) would with cancel as opt's
// cancel channel. A Prepared belongs to one decision and is not safe
// for concurrent use: Check counts the calls it serves. It keeps no
// cancel channel: a decision (core's verifier) prepares one for its
// query at the first verification that needs it, and every Check from
// layers 2, 3 and 4 passes the decision's channel.
type Prepared struct {
	qp  *cq.CQ
	set *deps.Set
	m   Method
	// copt holds the chase methods' budgets, the depth budget resolved,
	// and no cancel channel: Check takes the caller's.
	copt chase.Options
	rw   *rewrite.Result // only for MethodRewrite
	// checks counts Check calls served — the Prepare reuse count.
	checks int64
}

// Prepare builds a Prepared checker for the fixed right-hand side q'.
// opt's cancel channels and opt.Trace serve Prepare only: the checker
// keeps neither, so it never holds on to the channel or the span tree
// of the call that built it.
func Prepare(qp *cq.CQ, set *deps.Set, opt Options) (*Prepared, error) {
	sp := opt.Trace.Start("containment:prepare")
	defer sp.End()
	m := SelectMethod(set, opt)
	p := &Prepared{qp: qp, set: set, m: m, copt: opt.Chase}
	p.copt.Cancel = nil
	if m == MethodRewrite {
		rw, err := rewrite.Rewrite(qp, set, opt.Rewrite)
		if err != nil {
			return nil, err
		}
		p.rw = rw
	}
	if m == MethodBounded && p.copt.MaxDepth <= 0 {
		p.copt.MaxDepth = defaultGuardedDepth(qp, set)
	}
	return p, nil
}

// Check decides q ⊆Σ q' for the prepared right-hand side, freezing and
// chasing q in the caller's runner r; a closed cancel aborts the chase
// with stop.ErrCancelled.
func (p *Prepared) Check(q *cq.CQ, r *chase.Runner, cancel <-chan struct{}) (Decision, error) {
	p.checks++
	obs.ContainmentChecks.Add(1)
	if len(q.Free) != len(p.qp.Free) {
		return Decision{Holds: false, Definitive: true, Method: MethodPlain}, nil
	}
	switch p.m {
	case MethodPlain:
		db, frozen := r.Freeze(q)
		return Decision{Holds: hom.HasTuple(p.qp, db, frozen), Definitive: true, Method: MethodPlain}, nil
	case MethodRewrite:
		db, frozen := r.Freeze(q)
		for _, d := range p.rw.UCQ.Disjuncts {
			if hom.HasTuple(d, db, frozen) {
				return Decision{Holds: true, Definitive: true, Method: MethodRewrite}, nil
			}
		}
		return Decision{Holds: false, Definitive: p.rw.Complete, Method: MethodRewrite}, nil
	default:
		// Chase methods chase the left-hand side, which varies per
		// call; the depth budget above is the only precomputable part.
		copt := p.copt
		copt.Cancel = cancel
		return chaseContains(q, p.qp, p.set, p.m, copt, r)
	}
}

// Checks returns the number of Check calls this prepared right-hand
// side has served — the reuse count that measures what Prepare's
// hoisting amortized.
func (p *Prepared) Checks() int64 { return p.checks }

// SelectedMethod returns the decision procedure Prepare resolved.
func (p *Prepared) SelectedMethod() Method { return p.m }

// Rewriting returns the hoisted UCQ rewriting of the right-hand side,
// nil when the selected method does not rewrite. It is the checker's
// own: callers read it and must not modify it.
func (p *Prepared) Rewriting() *rewrite.Result { return p.rw }

// RewriteSize reports the size of the hoisted UCQ rewriting and whether
// it was exhaustive; (0, true) when the selected method does not
// rewrite.
func (p *Prepared) RewriteSize() (disjuncts int, complete bool) {
	if p.rw == nil {
		return 0, true
	}
	return len(p.rw.UCQ.Disjuncts), p.rw.Complete
}

// Equivalent decides q ≡Σ q' as two containment checks. The decision is
// definitive when both directions are.
func Equivalent(q, qp *cq.CQ, set *deps.Set, opt Options) (Decision, error) {
	a, err := Contains(q, qp, set, opt)
	if err != nil {
		return Decision{}, err
	}
	if !a.Holds {
		return Decision{Holds: false, Definitive: a.Definitive, Method: a.Method}, nil
	}
	b, err := Contains(qp, q, set, opt)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Holds:      b.Holds,
		Definitive: a.Definitive && b.Definitive,
		Method:     b.Method,
	}, nil
}
