package rewrite

import (
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/testutil"
)

// TestAllocsRewrite guards the scratch-built closure: one Rewrite call
// renames each tgd once, unifies pieces and builds rewritings in reused
// buffers, core-reduces them in one hom.Corer, keys them with one
// cq.Keyer and copies only the disjuncts it keeps. The 9-disjunct
// rewriting of a layer-2 candidate of the decide-cold sticky template
// took 1,517 allocations when every step renamed its tgd, froze the
// disjunct and built fresh substitutions, atoms and queries, and every
// core froze into a new instance; Example 3 at n = 3 took 6,495.
func TestAllocsRewrite(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	set := deps.MustParse("US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y).")
	q := cq.MustParse("q() :- S0(x,x), S1(x,z), S0(z,x).")
	e3set, e3 := gen.Example3Set(3)
	for _, tc := range []struct {
		name      string
		q         *cq.CQ
		set       *deps.Set
		disjuncts int
		bound     float64
	}{
		{"sticky candidate", q, set, 9, 400},
		{"Example 3, n=3", e3, e3set, 0, 6495 / 2},
	} {
		res, err := Rewrite(tc.q, tc.set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.disjuncts > 0 && len(res.UCQ.Disjuncts) != tc.disjuncts {
			t.Fatalf("%s: %d disjuncts, want %d", tc.name, len(res.UCQ.Disjuncts), tc.disjuncts)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Rewrite(tc.q, tc.set, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d disjuncts in %v allocs", tc.name, len(res.UCQ.Disjuncts), allocs)
		if allocs > tc.bound {
			t.Errorf("%s: Rewrite allocates %v, want at most %v", tc.name, allocs, tc.bound)
		}
	}
}
