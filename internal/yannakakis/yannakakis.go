// Package yannakakis evaluates acyclic conjunctive queries in time
// linear in the database (Yannakakis' algorithm, VLDB 1981, the
// tractability result the paper's notion of semantic acyclicity buys):
// a full semijoin reduction over a join tree followed by a bottom-up
// join that never materializes more than the answer requires. A Boolean
// query needs only the bottom-up semijoin pass: it holds iff every
// root survives it.
//
// The production data path is integer-coded: Compile turns the query
// and its join forest into a Compiled program (interned.go), and
// Execute runs it over the database's columnar interned view, replacing
// per-tuple string keys with merge-joins over sorted id runs. The original
// string-keyed implementation survives in oracle.go as the
// differential-test oracle; both paths produce identical answers,
// order and EvalStats.
package yannakakis

import (
	"fmt"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
)

// Options tunes one evaluation. The zero value is the default: no
// cancellation, no stats collection. Leaf loading always probes the
// per-position index when an atom mentions constants.
type Options struct {
	// Cancel, when non-nil, aborts the evaluation as soon as the
	// channel is closed; the evaluator then returns stop.ErrCancelled.
	// Cancellation is polled once every cancelCheckRows rows of the
	// leaf-load, semijoin and join loops, so latency is bounded by a
	// fraction of one phase, not a whole evaluation.
	Cancel <-chan struct{}
	// Stats, when non-nil, receives the evaluation's work counters
	// (rows scanned, index hits, semijoin reductions). Collection never
	// influences the answers.
	Stats *obs.EvalStats
	// Trace, when non-nil, records one span per Execute phase that runs
	// (leaf loading, the two semijoin passes, the join; a Boolean plan
	// runs only the first two). The phases run sequentially, so the
	// span structure is deterministic; nil is free (the hooks are no-ops
	// that allocate nothing).
	Trace *telemetry.Recorder
}

// cancelCheckRows is the row granularity of cancellation polls inside
// the evaluation loops.
const cancelCheckRows = 1024

// evalState threads options and a poll countdown through one run.
type evalState struct {
	opt   Options
	since int
}

// cancelled polls the cancel channel every cancelCheckRows ticks.
func (st *evalState) cancelled() bool {
	if st.opt.Cancel == nil {
		return false
	}
	st.since++
	if st.since < cancelCheckRows {
		return false
	}
	st.since = 0
	return stop.Cancelled(st.opt.Cancel)
}

// Evaluate computes q(D) for an acyclic q. It returns an error when q
// is not acyclic (callers wanting cyclic evaluation use package hom).
// For Boolean queries the answer set is [[]] (one empty tuple) when the
// query holds and empty otherwise. It compiles q on every call; callers
// evaluating one query repeatedly should Compile once and reuse the
// Compiled program.
func Evaluate(q *cq.CQ, db *instance.Instance) ([][]term.Term, error) {
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		return nil, fmt.Errorf("yannakakis: query %s is not acyclic", q.Name)
	}
	c, err := Compile(q, forest)
	if err != nil {
		return nil, err
	}
	return c.Execute(db, Options{})
}
