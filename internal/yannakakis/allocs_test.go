package yannakakis

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
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

// patchShapedInstance builds an instance of about size atoms in the
// shape of bench/'s patch-eval: 25 C and 25 D anchors over distinct
// nodes and, per node, one N fact and one E- and one F-successor. It
// returns the instance and 20 absent E atoms to insert.
func patchShapedInstance(size int) (*instance.Instance, []instance.Atom) {
	r := rand.New(rand.NewSource(1))
	nodes := (size - 50) / 3
	node := func(i int) term.Term { return term.Const(fmt.Sprintf("c%d", i)) }
	db := instance.New()
	for k, i := range r.Perm(nodes)[:50] {
		db.Add(instance.NewAtom([2]string{"C", "D"}[k%2], node(i)))
	}
	for i := 0; i < nodes; i++ {
		db.Add(instance.NewAtom("N", node(i)))
		db.Add(instance.NewAtom("E", node(i), node(r.Intn(nodes))))
		db.Add(instance.NewAtom("F", node(i), node(r.Intn(nodes))))
	}
	var spares []instance.Atom
	for len(spares) < 20 {
		if a := instance.NewAtom("E", node(r.Intn(nodes)), node(r.Intn(nodes))); !db.Has(a) {
			spares = append(spares, a)
		}
	}
	return db, spares
}

// TestAllocsExecuteDelta guards the incremental evaluator's two cheap
// paths on a 20,000-atom instance shaped like bench/'s patch-eval: a
// run over an unchanged view reuses the state for one allocation, and
// a repair after one 20-insert batch reads the appended rows straight
// from the view, with no atom keys, copies or per-term lookups. Netting
// a delta journal instead, the repair took 127 allocations.
func TestAllocsExecuteDelta(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	db, spares := patchShapedInstance(20000)
	q := cq.MustParse("q(x,z) :- C(x), E(x,y), E(y,z).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query should be acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := c.ExecuteState(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var st obs.EvalStats
	measure := func() float64 {
		return testing.AllocsPerRun(50, func() {
			st = obs.EvalStats{}
			if _, _, err = c.ExecuteDelta(state, db, Options{Stats: &st}); err != nil {
				t.Fatal(err)
			}
		})
	}

	reuse := measure()
	if st.TreesReused != 1 {
		t.Fatalf("unchanged view: want a reuse, got %s", st.Fingerprint())
	}
	if reuse > 1 {
		t.Errorf("a reuse allocates %v, want at most 1", reuse)
	}

	if _, err := db.ApplyDelta(spares, nil); err != nil {
		t.Fatal(err)
	}
	repair := measure()
	if st.TreesRepaired != 1 || st.DeltaInserts != int64(len(spares)) {
		t.Fatalf("20-insert batch: want a repair of 20 rows, got %s", st.Fingerprint())
	}
	t.Logf("reuse %v allocs, repair %v", reuse, repair)
	if repair > 80 {
		t.Errorf("a repair after a 20-insert batch allocates %v, want at most 80", repair)
	}

	// The union into the cached projection keys the delta's rows only:
	// a repair of q(x,z) :- E(x,y), E(y,z) after a one-atom insert
	// allocates within a small constant of itself when the graph, and
	// with it the projection, grows tenfold at the same out-degree.
	// Keying every cached row took one allocation per row.
	small, nSmall := measurePathRepair(t, 500)
	big, nBig := measurePathRepair(t, 5000)
	t.Logf("one-atom repair: %v allocs at %d answers, %v at %d", small, nSmall, big, nBig)
	if nBig < 8*nSmall {
		t.Fatalf("fixture projections %d and %d do not differ tenfold", nSmall, nBig)
	}
	if big > small+64 {
		t.Errorf("a one-atom repair allocates %v at %d answers but %v at %d: allocations grow with the projection",
			small, nSmall, big, nBig)
	}
}

// measurePathRepair builds a random graph of three edges per node,
// runs q(x,z) :- E(x,y), E(y,z) on it, inserts one absent edge and
// measures the allocations of the repair, whose answers must equal a
// fresh Execute. It returns the allocations and the answer count.
func measurePathRepair(t *testing.T, nodes int) (float64, int) {
	t.Helper()
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query should be acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(int64(nodes)))
	edge := func() instance.Atom {
		return instance.NewAtom("E", term.Const(fmt.Sprintf("c%d", r.Intn(nodes))), term.Const(fmt.Sprintf("c%d", r.Intn(nodes))))
	}
	db := instance.New()
	for db.Len() < 3*nodes {
		db.Add(edge())
	}
	_, state, err := c.ExecuteState(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := edge()
	for db.Has(a) {
		a = edge()
	}
	if _, err := db.ApplyDelta([]instance.Atom{a}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := c.Execute(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]term.Term
	var st obs.EvalStats
	allocs := testing.AllocsPerRun(5, func() {
		st = obs.EvalStats{}
		if got, _, err = c.ExecuteDelta(state, db, Options{Stats: &st}); err != nil {
			t.Fatal(err)
		}
	})
	if st.TreesRepaired != 1 {
		t.Fatalf("one-atom insert at %d nodes: want a repair, got %s", nodes, st.Fingerprint())
	}
	if !sameAnswers(got, want) {
		t.Fatalf("one-atom repair at %d nodes: %d answers, Execute gives %d", nodes, len(got), len(want))
	}
	return allocs, len(want)
}
