package chase

import (
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/testutil"
)

// TestAllocsChaseQuery guards the chase's per-atom cost: a derived atom
// is one cell (instance.AddSlot copies the head arguments built in a
// reused buffer), derivation depths live in a slot-indexed table rather
// than a map keyed by Atom.Key strings, the trigger list and image slab
// are reused across collections, and the tgd variable lists are built
// once by the parser. Before that the first case took 266 allocations
// and the second 65 (now 89 and 40).
func TestAllocsChaseQuery(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		query, deps  string
		maxDepth     int
		atoms, fired int
		bound        float64
	}{
		{"q :- E(x,y), E(y,z).", "E(x,y) -> E(y,z).", 11, 13, 11, 120},
		{"q :- A(x,y), B(y,z), C(z,x).", "A(x,y) -> B(y,z).\nB(x,y) -> C(y,w).", 0, 3, 0, 48},
	} {
		q, set := cq.MustParse(tc.query), deps.MustParse(tc.deps)
		var atoms, fired int
		allocs := testing.AllocsPerRun(200, func() {
			res, _, err := Query(q, set, Options{MaxDepth: tc.maxDepth})
			if err != nil {
				t.Fatal(err)
			}
			atoms, fired = res.Instance.Len(), res.Stats.TriggersFired
		})
		if atoms != tc.atoms || fired != tc.fired {
			t.Fatalf("chase of %q: %d atoms, %d fired, want %d and %d", tc.query, atoms, fired, tc.atoms, tc.fired)
		}
		if allocs > tc.bound {
			t.Errorf("chase of %q allocates %v, want at most %v", tc.query, allocs, tc.bound)
		}
	}
}
