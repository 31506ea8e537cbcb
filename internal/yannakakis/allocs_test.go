package yannakakis

import (
	"fmt"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// TestAllocsSemijoinProbe is the regression guard for the steady-state
// semijoin probe: with the right-side filter already projected and
// sorted, testing each left row for membership (key projection into a
// reused buffer + merge-join binary search) must not allocate. This is
// the exact per-row operation of ievalState.semijoin; the ci.sh
// `-run 'TestAllocs'` gate runs it without -race on every push.
func TestAllocsSemijoinProbe(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const w = 2
	var filter []symtab.ID
	for i := 0; i < 512; i++ {
		filter = append(filter, symtab.ID(i%37), symtab.ID(i%11))
	}
	symtab.SortRows(filter, w)
	var left []symtab.ID
	for i := 0; i < 256; i++ {
		left = append(left, symtab.ID(i%41), symtab.ID(i%13))
	}
	key := make([]symtab.ID, w)
	hits := 0
	allocs := testing.AllocsPerRun(200, func() {
		for r := 0; r < 256; r++ {
			key[0] = left[r*w]
			key[1] = left[r*w+1]
			if symtab.ContainsRow(filter, w, key) {
				hits++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("semijoin probe allocates %v per op, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("probe never hit; fixture is meaningless")
	}
}

// TestAllocsMaterializeAnswers guards the slab answer boundary: a full
// Execute of q(x,z) :- E(x,y), E(y,z) must allocate within a small
// constant of itself when its answer count grows tenfold. Per-answer
// allocations (a tuple, a dedup key, a sort key each) would add
// thousands; the slab, the answer slice and the amortized growth of
// the in-flight relations add a few dozen at most.
func TestAllocsMaterializeAnswers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query should be acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatal(err)
	}
	// A circulant graph: node i has edges to i+1..i+3 (mod n), so the
	// path-2 query has exactly 5 distinct answers per node.
	measure := func(n int) (allocs float64, answers int) {
		db := instance.New()
		for i := 0; i < n; i++ {
			for d := 1; d <= 3; d++ {
				db.Add(instance.NewAtom("E",
					term.Const(fmt.Sprintf("c%d", i)), term.Const(fmt.Sprintf("c%d", (i+d)%n))))
			}
		}
		db.Interned()
		allocs = testing.AllocsPerRun(10, func() {
			ans, err := c.Execute(db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			answers = len(ans)
		})
		return allocs, answers
	}
	small, nSmall := measure(100)
	big, nBig := measure(1000)
	if nSmall != 500 || nBig != 5000 {
		t.Fatalf("fixture answers = %d, %d; want 500, 5000", nSmall, nBig)
	}
	t.Logf("%v allocs for %d answers, %v for %d", small, nSmall, big, nBig)
	if big > small+64 {
		t.Fatalf("Execute allocates %v for %d answers but %v for %d: allocations grow with answers",
			small, nSmall, big, nBig)
	}
}
