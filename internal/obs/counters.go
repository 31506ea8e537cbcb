package obs

import "sync/atomic"

// Counter is a named process-global counter: always-on and lock-free.
// Counters only ever grow; readers take snapshots and diff them.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Name returns the counter's name; /metrics exports it as
// <name>_total with dots turned into underscores.
func (c *Counter) Name() string { return c.name }

var registry []*Counter

func reg(name string) *Counter {
	c := &Counter{name: name}
	registry = append(registry, c)
	return c
}

// The process-global always-on counters. Cumulative across the process
// lifetime; all NONDETERMINISTIC in the per-run sense (they aggregate
// every goroutine's work).
var (
	// Decisions counts core.Decide calls completed.
	Decisions = reg("semacyclic.decisions")

	// ChaseRuns / ChaseRounds / ChaseTriggersFired / ChaseNulls /
	// ChaseMerges aggregate the chase engine's work.
	ChaseRuns          = reg("semacyclic.chase.runs")
	ChaseRounds        = reg("semacyclic.chase.rounds")
	ChaseTriggersFired = reg("semacyclic.chase.triggers_fired")
	ChaseNulls         = reg("semacyclic.chase.nulls_created")
	ChaseMerges        = reg("semacyclic.chase.merges")

	// SearchRuns / SearchCandidates aggregate the layer-4 enumerator.
	SearchRuns       = reg("semacyclic.search.runs")
	SearchCandidates = reg("semacyclic.search.candidates")

	// ContainmentChecks counts containment decisions made by a Σ
	// procedure (Contains and Prepared.Check calls). The plain
	// Chandra–Merlin containment core's witness verification tries
	// first is not counted.
	ContainmentChecks = reg("semacyclic.containment.checks")

	// HomEnumerations / HomBacktracks aggregate the backtracking
	// homomorphism engine — the innermost hot loop of everything.
	HomEnumerations = reg("semacyclic.hom.enumerations")
	HomBacktracks   = reg("semacyclic.hom.backtracks")

	// The semacycd serving-layer counters (see internal/server):
	// requests accepted, decision-cache hits served byte-identically,
	// requests aborted by their deadline, and requests shed with 429
	// because the worker queue was full.
	ServerRequests  = reg("server.requests")
	ServerCacheHits = reg("server.cache_hits")
	ServerCancelled = reg("server.cancelled")
	ServerShed      = reg("server.shed")

	// The evaluation-layer counters: /evaluate requests completed,
	// compiled-plan cache hits (a hit skips decide + GYO entirely),
	// instances loaded into the registry, and the Yannakakis leaf-load
	// totals (rows read vs rows the per-position indexes avoided).
	ServerEvaluations   = reg("server.evaluations")
	ServerPlanCacheHits = reg("server.plan_cache_hits")
	ServerInstances     = reg("server.instances_loaded")
	EvalRowsScanned     = reg("semacyclic.eval.rows_scanned")
	EvalIndexHits       = reg("semacyclic.eval.index_hits")

	// The incremental-evaluation counters: PATCH /instances batches
	// applied and their effective atom deltas, overlay (what-if)
	// evaluations served, instance epochs advanced by patches, and the
	// per-evaluation reducer decisions — how the retained
	// semijoin-reducer state was used (cold first run, reused verbatim,
	// repaired from the delta, fully recomputed, or a per-tree mix).
	ServerPatches           = reg("server.patches")
	ServerDeltaInserts      = reg("server.delta_inserts")
	ServerDeltaDeletes      = reg("server.delta_deletes")
	ServerOverlayEvals      = reg("server.overlay_evaluations")
	ServerEpochChurn        = reg("server.epoch_churn")
	ServerReducerCold       = reg("server.reducer_cold")
	ServerReducerReused     = reg("server.reducer_reused")
	ServerReducerRepaired   = reg("server.reducer_repaired")
	ServerReducerRecomputed = reg("server.reducer_recomputed")
	ServerReducerMixed      = reg("server.reducer_mixed")
)

// Snapshot is a point-in-time copy of every global counter, for
// computing deltas across a region of work.
type Snapshot map[string]int64

// TakeSnapshot copies the current global counter values.
func TakeSnapshot() Snapshot {
	s := make(Snapshot, len(registry))
	for _, c := range registry {
		s[c.name] = c.Load()
	}
	return s
}

// HomDelta returns the homomorphism-engine counters accumulated since
// the snapshot was taken. Process-global: concurrent work by other
// goroutines is included (see HomStats).
func (s Snapshot) HomDelta() HomStats {
	return HomStats{
		Enumerations: HomEnumerations.Load() - s[HomEnumerations.Name()],
		Backtracks:   HomBacktracks.Load() - s[HomBacktracks.Name()],
	}
}

// All returns every registered global counter, in registration order.
// The registry is fixed at init time, so the returned slice is safe to
// iterate without synchronization (the counters themselves are atomic).
// The /metrics exposition uses this to render the counters alongside
// the serving histograms.
func All() []*Counter {
	return registry
}
