package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNewStatsSentinels(t *testing.T) {
	st := NewStats()
	if st.Search.WinnerBranch != -1 {
		t.Errorf("WinnerBranch = %d, want -1", st.Search.WinnerBranch)
	}
	if st.Search.Candidates != -1 {
		t.Errorf("Candidates = %d, want -1", st.Search.Candidates)
	}
}

// TestDeterministicFingerprintExcludesNondeterministicFields: two runs
// differing only in scheduling-dependent measurements must fingerprint
// identically — that is the whole point of the fingerprint.
func TestDeterministicFingerprintExcludesNondeterministicFields(t *testing.T) {
	a := NewStats()
	a.Chase = ChaseStats{Rounds: 3, TriggersFired: 7, Complete: true}
	a.Search = SearchStats{Branches: 9, Bound: 6, Budget: 1500, WinnerBranch: 2, Candidates: 41}
	a.AddLayer("core", 1, 100)
	a.AddLayer("complete", 41, 5000)

	b := NewStats()
	b.Chase = a.Chase
	b.Search = a.Search
	b.AddLayer("core", 1, 999999) // different wall time
	b.AddLayer("complete", 41, 1)
	// Perturb every nondeterministic search field.
	b.Search.CandidatesObserved = 120
	b.Search.NodesVisited = 1 << 20
	b.Search.PrunedByHom = 5555
	b.Search.Verified = 17
	b.Search.PruneMemoHits = 3
	b.Search.Workers = 8
	b.Search.WorkerBranches = []int64{4, 5}
	b.WallNS = 123456789
	b.Hom = HomStats{Enumerations: 42, Backtracks: 9000}
	b.Containment.PreparedChecks = 77

	if af, bf := a.DeterministicFingerprint(), b.DeterministicFingerprint(); af != bf {
		t.Errorf("fingerprints diverged on nondeterministic fields only:\n  a: %s\n  b: %s", af, bf)
	}
}

// TestDeterministicFingerprintSeesDeterministicFields: each
// deterministic field must actually reach the fingerprint.
func TestDeterministicFingerprintSeesDeterministicFields(t *testing.T) {
	base := func() *Stats {
		st := NewStats()
		st.Chase = ChaseStats{Rounds: 2}
		st.Search = SearchStats{Branches: 4, WinnerBranch: -1, Candidates: -1}
		st.AddLayer("core", 1, 0)
		return st
	}
	mutations := []struct {
		name string
		mut  func(*Stats)
	}{
		{"chase.rounds", func(s *Stats) { s.Chase.Rounds++ }},
		{"chase.fired", func(s *Stats) { s.Chase.TriggersFired++ }},
		{"chase.nulls", func(s *Stats) { s.Chase.NullsCreated++ }},
		{"search.branches", func(s *Stats) { s.Search.Branches++ }},
		{"search.winner", func(s *Stats) { s.Search.WinnerBranch = 0 }},
		{"search.exhausted", func(s *Stats) { s.Search.Exhausted = true }},
		{"search.candidates", func(s *Stats) { s.Search.Candidates = 7 }},
		{"containment.method", func(s *Stats) { s.Containment.Method = "chase" }},
		{"layers", func(s *Stats) { s.AddLayer("complete", 3, 0) }},
	}
	want := base().DeterministicFingerprint()
	for _, m := range mutations {
		st := base()
		m.mut(st)
		if st.DeterministicFingerprint() == want {
			t.Errorf("mutation %q invisible to the fingerprint", m.name)
		}
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	st := NewStats()
	st.Chase = ChaseStats{Rounds: 3, TriggersCollected: 12, TriggersFired: 7, NullsCreated: 2, Atoms: 10, Complete: true}
	st.Search.Branches = 5
	st.AddLayer("core", 1, 42)
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"chase"`, `"search"`, `"containment"`, `"hom"`, `"layers"`, `"wall_ns"`, `"winner_branch"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s: %s", key, b)
		}
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Chase != st.Chase {
		t.Errorf("chase round-trip: %+v != %+v", back.Chase, st.Chase)
	}
	if got, want := back.DeterministicFingerprint(), st.DeterministicFingerprint(); got != want {
		t.Errorf("fingerprint round-trip: %s != %s", got, want)
	}
}

func TestCountersAndSnapshots(t *testing.T) {
	before := TakeSnapshot()
	HomEnumerations.Add(3)
	HomBacktracks.Add(11)
	d := before.HomDelta()
	if d.Enumerations < 3 || d.Backtracks < 11 {
		t.Errorf("delta %+v, want ≥ {3 11}", d)
	}
	after := TakeSnapshot()
	if after[HomEnumerations.Name()]-before[HomEnumerations.Name()] < 3 {
		t.Errorf("snapshot delta too small: %v vs %v", after, before)
	}
}
