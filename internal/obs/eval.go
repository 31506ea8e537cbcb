package obs

import (
	"fmt"

	"semacyclic/internal/telemetry"
)

// EvalStats is the per-evaluation observability snapshot: one query
// executed against one database instance, by whichever method the plan
// selected. It travels on core.Plan.Execute results and out of the
// semacycd /evaluate endpoint.
//
// Like Stats, fields split into DETERMINISTIC (fixed for a given
// plan/database/options triple — the index and semijoin work of the
// sequential evaluators) and NONDETERMINISTIC (wall times). The
// determinism tests compare the former byte for byte.
type EvalStats struct {
	// Method names the evaluation procedure that ran: "yannakakis",
	// "guarded-game", "egd-game" or "generic". DETERMINISTIC.
	Method string `json:"method" sem:"det"`
	// Answers is the size of the answer set. DETERMINISTIC.
	Answers int `json:"answers" sem:"det"`
	// RowsScanned counts database atoms read while loading join-tree
	// leaves: every atom fetched from a per-predicate or per-position
	// list. The game and generic methods do not count their candidates
	// and report 0 (ROADMAP item 1, step a). DETERMINISTIC.
	RowsScanned int64 `json:"rows_scanned" sem:"det"`
	// IndexLookups counts ByPos probes issued for bound (constant)
	// argument positions. DETERMINISTIC.
	IndexLookups int64 `json:"index_lookups" sem:"det"`
	// IndexHits counts rows returned by those probes — the rows that
	// were read instead of scanned. DETERMINISTIC.
	IndexHits int64 `json:"index_hits" sem:"det"`
	// IndexSkippedRows counts the rows the index lookups avoided
	// scanning: Σ over indexed atoms of (predicate size − candidates).
	// DETERMINISTIC.
	IndexSkippedRows int64 `json:"index_skipped_rows" sem:"det"`
	// Semijoins counts semijoin reductions performed: two per join-tree
	// edge in a full Yannakakis pass, one per edge when a Boolean plan
	// (no free variables) stops after the bottom-up pass. DETERMINISTIC.
	Semijoins int64 `json:"semijoins" sem:"det"`
	// SemijoinDroppedRows counts rows eliminated by those reductions
	// (on a Boolean plan, by the bottom-up pass alone). DETERMINISTIC.
	SemijoinDroppedRows int64 `json:"semijoin_dropped_rows" sem:"det"`
	// JoinRows counts rows materialized by the bottom-up join phase and
	// the cross-product across join trees; always 0 on a Boolean plan,
	// which runs neither. DETERMINISTIC.
	JoinRows int64 `json:"join_rows" sem:"det"`
	// DeltaInserts / DeltaDeletes count the rows the plan's relations
	// gained and lost since the state an incremental (ExecuteDelta) run
	// repaired, each predicate once and per batch, without netting
	// across batches; a rebuilt relation counts 0. 0 on full runs.
	// DETERMINISTIC.
	DeltaInserts int64 `json:"delta_inserts,omitempty" sem:"det"`
	DeltaDeletes int64 `json:"delta_deletes,omitempty" sem:"det"`
	// TreesReused / TreesRepaired / TreesRecomputed classify what an
	// incremental run did with each join tree of the plan: reused the
	// cached reducer projection untouched, repaired it from the rows
	// its relations appended, or recomputed it (any other change, or no
	// usable state). All 0 on plain full runs. DETERMINISTIC.
	TreesReused     int64 `json:"trees_reused,omitempty" sem:"det"`
	TreesRepaired   int64 `json:"trees_repaired,omitempty" sem:"det"`
	TreesRecomputed int64 `json:"trees_recomputed,omitempty" sem:"det"`
	// WallNS is the evaluation wall time. NONDETERMINISTIC.
	WallNS telemetry.DurationNS `json:"wall_ns" sem:"nondet"`
}

// Fingerprint renders the deterministic evaluation fields canonically;
// two evaluations of the same plan over the same database must produce
// byte-identical fingerprints.
func (e *EvalStats) Fingerprint() string {
	return fmt.Sprintf("eval{method=%s answers=%d scanned=%d lookups=%d hits=%d skipped=%d semijoins=%d dropped=%d joinrows=%d delta{ins=%d del=%d reused=%d repaired=%d recomputed=%d}}",
		e.Method, e.Answers, e.RowsScanned, e.IndexLookups, e.IndexHits,
		e.IndexSkippedRows, e.Semijoins, e.SemijoinDroppedRows, e.JoinRows,
		e.DeltaInserts, e.DeltaDeletes, e.TreesReused, e.TreesRepaired, e.TreesRecomputed)
}
