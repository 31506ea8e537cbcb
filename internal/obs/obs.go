// Package obs is the decision pipeline's observability layer: per-run
// statistics structs that flow out on core.Result, process-global
// always-on counters (exported by semacycd's /metrics), and the
// determinism bookkeeping that keeps the two kinds of numbers honest.
//
// Every counter is classified as DETERMINISTIC or NONDETERMINISTIC:
//
//   - Deterministic fields are identical on every run of a fixed input
//     — they are part of the engine's determinism contract, and the
//     determinism tests assert their fingerprints byte for byte.
//   - Nondeterministic fields are measurements, not contract: wall
//     times, process-wide deltas that concurrent decisions bleed into,
//     and cost counters (nodes visited, memo hits, verifications run)
//     that a cheaper search may change without changing any answer.
//
// The structs are plain data with JSON tags; the stats-collection cost
// lives in the packages that fill them (plain counters in the search,
// one atomic pair per hom enumeration).
package obs

import (
	"fmt"
	"strings"

	"semacyclic/internal/telemetry"
)

// Stats is the per-decision observability snapshot attached to
// core.Result. The zero value is ready to fill; NewStats applies the
// sentinels (-1 for "no winner" / "not defined").
type Stats struct {
	// Chase observes chase(q,Σ), the Lemma 1 pruning target built by
	// the decision layers. Deterministic: the pipeline chases with
	// sequential rounds.
	Chase ChaseStats `json:"chase" sem:"group"`
	// Search observes the layer-4 complete bounded enumeration.
	Search SearchStats `json:"search" sem:"group"`
	// Containment observes the prepared right-hand-side checker.
	Containment ContainmentStats `json:"containment" sem:"group"`
	// Hom is the process-global homomorphism-engine delta observed
	// during the decision. NONDETERMINISTIC — concurrent decisions in
	// the same process bleed into each other's deltas.
	Hom HomStats `json:"hom" sem:"group"`
	// Layers records, in order, each decision layer that ran: its
	// candidate count (deterministic) and wall time (nondeterministic).
	Layers []LayerStats `json:"layers,omitempty" sem:"group"`
	// WallNS is the total decision wall time. NONDETERMINISTIC — the
	// telemetry.DurationNS type marks it as wall-clock-derived, and the
	// statsclass analyzer rejects any telemetry-typed field not tagged
	// sem:"nondet".
	WallNS telemetry.DurationNS `json:"wall_ns" sem:"nondet"`
}

// NewStats returns a Stats with the "not defined" sentinels applied.
func NewStats() *Stats {
	return &Stats{Search: SearchStats{Candidates: -1}}
}

// LayerStats is one decision layer's contribution.
type LayerStats struct {
	// Name is the layer's Result.Layer-style name.
	Name string `json:"name" sem:"det"`
	// Candidates examined by the layer. DETERMINISTIC: the complete
	// layer records its decisive count (see SearchStats.Candidates), not
	// the raw total.
	Candidates int `json:"candidates" sem:"det"`
	// WallNS is the layer's wall time. NONDETERMINISTIC.
	WallNS telemetry.DurationNS `json:"wall_ns" sem:"nondet"`
}

// ChaseStats counts the work of one chase run. All fields are
// DETERMINISTIC for fixed chase options: the chase runs sequential
// rounds.
type ChaseStats struct {
	// Rounds is the number of tgd passes executed (including the final
	// pass that fires nothing and certifies the fixpoint).
	Rounds int `json:"rounds" sem:"det"`
	// TriggersCollected is the total number of body homomorphisms
	// gathered across all passes, before applicability re-checks.
	TriggersCollected int `json:"triggers_collected" sem:"det"`
	// TriggersFired is the number of tgd applications performed
	// (identical to the chase Result.Steps counter, and to the number
	// of tgd entries in a Trace).
	TriggersFired int `json:"triggers_fired" sem:"det"`
	// NullsCreated is the number of fresh labelled nulls minted for
	// existential head variables.
	NullsCreated int `json:"nulls_created" sem:"det"`
	// Merges is the number of egd term identifications performed
	// (identical to the number of merge entries in a Trace).
	Merges int `json:"merges" sem:"det"`
	// Atoms is the size of the chased instance.
	Atoms int `json:"atoms" sem:"det"`
	// Complete reports whether the chase reached its fixpoint.
	Complete bool `json:"complete" sem:"det"`
}

// Fingerprint renders the deterministic chase fields canonically.
func (c ChaseStats) Fingerprint() string {
	return fmt.Sprintf("chase{rounds=%d collected=%d fired=%d nulls=%d merges=%d atoms=%d complete=%v}",
		c.Rounds, c.TriggersCollected, c.TriggersFired, c.NullsCreated, c.Merges, c.Atoms, c.Complete)
}

// SearchStats observes the layer-4 enumeration.
type SearchStats struct {
	// Bound is the atom bound actually enumerated to (after the
	// UCQ-class cap, when applied). DETERMINISTIC.
	Bound int `json:"bound" sem:"det"`
	// Budget is the verification-slot budget the run was given.
	// DETERMINISTIC.
	Budget int `json:"budget" sem:"det"`
	// Exhausted reports a definitive full enumeration. DETERMINISTIC.
	Exhausted bool `json:"exhausted" sem:"det"`
	// Candidates is the decisive candidate count: the number of
	// verifications the search performs up to the decision point.
	// DETERMINISTIC — when a witness is returned it counts the
	// verifications up to and including it; when the run exhausted it
	// is the total. A budget-truncated run without a witness reaches no
	// decision point, so the field is -1 ("not defined"). The search
	// returns the first witness in canonical order, and only when the
	// subtree of every earlier first atom was enumerated completely; a
	// witness it discards leaves the field -1 too. See
	// CandidatesObserved for the raw count.
	Candidates int `json:"candidates" sem:"det"`

	// CandidatesObserved is the raw number of verifications granted,
	// including those after a truncated subtree. NONDETERMINISTIC.
	CandidatesObserved int `json:"candidates_observed" sem:"nondet"`
	// NodesVisited counts enumeration-tree nodes expanded.
	// NONDETERMINISTIC.
	NodesVisited int64 `json:"nodes_visited" sem:"nondet"`
	// PrunedByHom counts prefixes cut by the Lemma 1 pinned-
	// homomorphism test. NONDETERMINISTIC.
	PrunedByHom int64 `json:"pruned_by_hom" sem:"nondet"`
	// Verified counts containment verifications actually evaluated
	// (candidate-memo misses); hits return the cached verdict.
	// NONDETERMINISTIC.
	Verified int64 `json:"verified" sem:"nondet"`
	// Indefinite counts non-definitive verification verdicts (a budget
	// inside the containment check). NONDETERMINISTIC.
	Indefinite int64 `json:"indefinite" sem:"nondet"`
	// CandMemoHits / CandMemoMisses are the candidate-containment cache
	// rates. NONDETERMINISTIC.
	CandMemoHits   int64 `json:"cand_memo_hits" sem:"nondet"`
	CandMemoMisses int64 `json:"cand_memo_misses" sem:"nondet"`
}

// Fingerprint renders the deterministic search fields canonically.
func (s SearchStats) Fingerprint() string {
	return fmt.Sprintf("search{bound=%d budget=%d exhausted=%v candidates=%d}",
		s.Bound, s.Budget, s.Exhausted, s.Candidates)
}

// ContainmentStats observes the verification side of the search.
type ContainmentStats struct {
	// Method is the containment procedure selected for the fixed
	// right-hand side. DETERMINISTIC.
	Method string `json:"method" sem:"det"`
	// RewriteDisjuncts is the size of the hoisted UCQ rewriting
	// (sticky / non-recursive sets), 0 when the method does not
	// rewrite, -1 when no prepared checker was built (memo disabled).
	// DETERMINISTIC for a fixed DisableSearchMemo setting.
	RewriteDisjuncts int `json:"rewrite_disjuncts" sem:"det"`
	// RewriteComplete reports whether the rewriting was exhaustive.
	RewriteComplete bool `json:"rewrite_complete" sem:"det"`
	// PreparedChecks is the number of Check calls served by the
	// decision's prepared right-hand side — the Prepare reuse count.
	// The checker serves layers 2 and 3 and the shape layer before
	// layer 4, so their checks count too, and a decision settled before
	// layer 4 reports them as well; 0 when no layer prepared a checker. NONDETERMINISTIC (a
	// cost counter: candidate-memo hits skip the check).
	PreparedChecks int64 `json:"prepared_checks" sem:"nondet"`
}

// Fingerprint renders the deterministic containment fields canonically.
func (c ContainmentStats) Fingerprint() string {
	return fmt.Sprintf("containment{method=%s disjuncts=%d complete=%v}",
		c.Method, c.RewriteDisjuncts, c.RewriteComplete)
}

// HomStats is a delta of the process-global homomorphism counters.
// NONDETERMINISTIC: the counters are process-wide, so concurrent work
// in other goroutines lands in the same delta.
type HomStats struct {
	// Enumerations counts hom.Enumerate calls (every Exists/Find/
	// Evaluate funnels through it).
	Enumerations int64 `json:"enumerations" sem:"nondet"`
	// Backtracks counts candidate-atom match attempts that failed and
	// forced the backtracking search to retreat.
	Backtracks int64 `json:"backtracks" sem:"nondet"`
}

// AddLayer appends one layer record.
func (s *Stats) AddLayer(name string, candidates int, wallNS telemetry.DurationNS) {
	s.Layers = append(s.Layers, LayerStats{Name: name, Candidates: candidates, WallNS: wallNS})
}

// DeterministicFingerprint serializes exactly the deterministic fields:
// two runs of the same input must produce byte-identical fingerprints. Memoization-dependent-but-deterministic
// fields (the containment group) are included; compare
// Chase/Search fingerprints directly when ablating the memo.
func (s *Stats) DeterministicFingerprint() string {
	var b strings.Builder
	b.WriteString(s.Chase.Fingerprint())
	b.WriteByte(' ')
	b.WriteString(s.Search.Fingerprint())
	b.WriteByte(' ')
	b.WriteString(s.Containment.Fingerprint())
	b.WriteString(" layers{")
	for i, l := range s.Layers {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", l.Name, l.Candidates)
	}
	b.WriteByte('}')
	return b.String()
}
