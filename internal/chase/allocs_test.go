package chase

import (
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// TestAllocsChaseQuery guards the chase's per-atom cost: a derived atom
// is one cell (instance.AddSlot copies the head arguments built in a
// reused buffer), derivation depths live in a slot-indexed table rather
// than a map keyed by Atom.Key strings, the trigger list and image slab
// are reused across collections, and the tgd variable lists are built
// once by the parser. Before that the first case took 266 allocations
// and the second 65, then 89 and 40; a fresh Runner's Query, which
// keeps its run state and the Result in the one Runner allocation,
// takes about 89 and 33. A reused Runner resets its instance,
// remembers its frozen constants and keeps its run state and null
// names, so it allocates the derived atoms' cells and little else: 17
// and 3.
func TestAllocsChaseQuery(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		query, deps   string
		maxDepth      int
		atoms, fired  int
		bound, reused float64
	}{
		{"q :- E(x,y), E(y,z).", "E(x,y) -> E(y,z).", 11, 13, 11, 120, 17},
		{"q :- A(x,y), B(y,z), C(z,x).", "A(x,y) -> B(y,z).\nB(x,y) -> C(y,w).", 0, 3, 0, 48, 3},
	} {
		q, set := cq.MustParse(tc.query), deps.MustParse(tc.deps)
		var run Runner
		for _, c := range []struct {
			name  string
			query func(*cq.CQ, *deps.Set, Options) (*Result, []term.Term, error)
			bound float64
		}{{"a fresh Query", Query, tc.bound}, {"a reused Runner", run.Query, tc.reused}} {
			var atoms, fired int
			chase := func() {
				res, _, err := c.query(q, set, Options{MaxDepth: tc.maxDepth})
				if err != nil {
					t.Fatal(err)
				}
				atoms, fired = res.Instance.Len(), res.Stats.TriggersFired
			}
			chase()
			allocs := testing.AllocsPerRun(200, chase)
			t.Logf("%s chasing %q: %v allocs", c.name, tc.query, allocs)
			if atoms != tc.atoms || fired != tc.fired {
				t.Fatalf("%s chasing %q: %d atoms, %d fired, want %d and %d", c.name, tc.query, atoms, fired, tc.atoms, tc.fired)
			}
			if allocs > c.bound {
				t.Errorf("%s chasing %q allocates %v, want at most %v", c.name, tc.query, allocs, c.bound)
			}
		}
	}
}
