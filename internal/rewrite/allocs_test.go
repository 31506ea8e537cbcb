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
//
// A reused Rewriter pays none of the per-call setup a fresh one does —
// the renamed tgds, the Corer's instance, the keyer's tables, the seen
// map and the names v0, v1, … — so its second call allocates the
// disjuncts it keeps and the result that lists them, and beyond those
// only the cells its core searches freeze (instance.Reset recycles
// none). On a candidate whose rewriting is itself (no tgd head
// matches) that is 8 allocations — the result, its list, the one
// disjunct with its key and the one frozen cell — against 46 for
// Rewrite; the sticky candidate's 9 disjuncts take 94 against 180.
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
		reused    bool // the second call of one Rewriter, not Rewrite
		bound     float64
	}{
		{"sticky candidate", q, set, 9, false, 400},
		{"Example 3, n=3", e3, e3set, 0, false, 6495 / 2},
		{"sticky candidate, reused", q, set, 9, true, 99},
		{"unrewritable candidate, reused", cq.MustParse("q() :- T(x,y)."), set, 1, true, 8},
	} {
		w, err := NewRewriter(tc.set)
		if err != nil {
			t.Fatal(err)
		}
		rewrite := func() (*Result, error) {
			if tc.reused {
				return w.Rewrite(tc.q, Options{})
			}
			return Rewrite(tc.q, tc.set, Options{})
		}
		res, err := rewrite()
		if err != nil {
			t.Fatal(err)
		}
		if tc.disjuncts > 0 && len(res.UCQ.Disjuncts) != tc.disjuncts {
			t.Fatalf("%s: %d disjuncts, want %d", tc.name, len(res.UCQ.Disjuncts), tc.disjuncts)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := rewrite(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d disjuncts in %v allocs", tc.name, len(res.UCQ.Disjuncts), allocs)
		if allocs > tc.bound {
			t.Errorf("%s: Rewrite allocates %v, want at most %v", tc.name, allocs, tc.bound)
		}
	}
}
