package core

import (
	"slices"

	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// This file is the incremental-evaluation surface of compiled plans:
// ExecuteIncremental threads a ReducerState from run to run so that a
// plan re-evaluated after an instance.ApplyDelta pays for the delta,
// not the database, and ExecuteOverlay evaluates a what-if
// instance.Overlay without materializing it (on the Yannakakis path).

// ReducerState carries one plan's retained evaluation state for one
// instance across epochs: the epoch it was computed at plus the
// per-tree semijoin-reducer projections of the Yannakakis evaluator.
// It is immutable, safe to share, and only pays off for the (plan,
// instance) pair that produced it — ExecuteIncremental recomputes every
// join tree whose relations changed other than by appending rows (a
// delete, a view rebuilt after a bare mutation, another instance's
// view), so a stale or misrouted state costs time, never correctness.
type ReducerState struct {
	// Epoch is the instance epoch the state was computed at. It is
	// informational: the next run reads what changed from the
	// instance's interned view, not from the epoch.
	Epoch uint64

	inner *yannakakis.ReducerState
}

// Incremental reports whether the plan supports stateful incremental
// re-evaluation — true exactly for the compiled Yannakakis method.
// Other methods still work through ExecuteIncremental; they just
// recompute from scratch and return no state.
func (p *Plan) Incremental() bool { return p.Method == MethodYannakakis && p.compiled != nil }

// ExecuteIncremental is Execute threading reducer state: pass the
// state returned by the previous run (nil on the first) and, when the
// plan is Incremental, the evaluation reuses each join tree whose
// relations did not change and repairs each whose relations only
// appended rows, recomputing the rest. Answers and their canonical
// order are identical to Execute's on the current instance in every
// case; EvalStats additionally reports the rows gained and lost and
// the per-tree reuse/repair/recompute split. The returned slice is the
// caller's own, but its tuples are shared with the returned state (and,
// on a reuse, with prev): treat them as read-only.
func (p *Plan) ExecuteIncremental(db *instance.Instance, prev *ReducerState, eopt EvalOptions) ([][]term.Term, *obs.EvalStats, *ReducerState, error) {
	if !p.Incremental() {
		ans, st, err := p.Execute(db, eopt)
		return ans, st, nil, err
	}
	st := &obs.EvalStats{Method: p.Method}
	sw := telemetry.StartTimer()
	sp := eopt.Trace.Start("execute")
	defer sp.End()
	yopt := yannakakis.Options{
		Cancel: eopt.Cancel,
		Stats:  st,
		Trace:  eopt.Trace,
	}
	var (
		ans   [][]term.Term
		inner *yannakakis.ReducerState
		err   error
	)
	switch {
	case prev != nil && prev.inner != nil:
		ans, inner, err = p.compiled.ExecuteDelta(prev.inner, db, yopt)
	default:
		// Cold start: a plain full run that retains state for next time.
		ans, inner, err = p.compiled.ExecuteState(db, yopt)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	// The state keeps its answers: hand the caller a copy of the outer
	// slice so that writing to it cannot reach the next reused run.
	ans = canonicalizeAnswers(slices.Clone(ans))
	st.Answers = len(ans)
	st.WallNS = sw.ElapsedNS()
	return ans, st, &ReducerState{Epoch: db.Epoch(), inner: inner}, nil
}

// ExecuteOverlay evaluates the plan against an overlay (what-if) view
// of a base instance. On the Yannakakis path the overlay's patched
// columnar view is evaluated directly — cost proportional to the
// delta, the base untouched; every other method materializes the
// overlay and runs Execute on the copy. Answers are exactly Execute's
// on the materialized overlay. The run retains nothing, so the
// returned slice is the caller's own; its tuples are read-only, as
// with Execute.
func (p *Plan) ExecuteOverlay(ov *instance.Overlay, eopt EvalOptions) ([][]term.Term, *obs.EvalStats, error) {
	if !p.Incremental() {
		mat, err := ov.Materialize()
		if err != nil {
			return nil, nil, err
		}
		return p.Execute(mat, eopt)
	}
	st := &obs.EvalStats{Method: p.Method}
	sw := telemetry.StartTimer()
	sp := eopt.Trace.Start("execute")
	defer sp.End()
	ans, err := p.compiled.ExecuteView(ov.Interned(), yannakakis.Options{
		Cancel: eopt.Cancel,
		Stats:  st,
		Trace:  eopt.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	ans = canonicalizeAnswers(ans)
	st.Answers = len(ans)
	st.WallNS = sw.ElapsedNS()
	return ans, st, nil
}
