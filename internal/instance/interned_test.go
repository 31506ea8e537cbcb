package instance

import (
	"testing"

	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func internedFixture(t *testing.T) *Instance {
	t.Helper()
	ins := New()
	facts := []Atom{
		NewAtom("E", term.Const("a"), term.Const("b")),
		NewAtom("E", term.Const("b"), term.Const("c")),
		NewAtom("E", term.Const("a"), term.Const("c")),
		NewAtom("P", term.Const("a")),
	}
	for _, a := range facts {
		if err := ins.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return ins
}

func TestInternedViewRoundTrip(t *testing.T) {
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	if rel == nil || rel.Arity != 2 || rel.Rows() != 3 {
		t.Fatalf("Relation(E) = %+v", rel)
	}
	// Every row decodes back to its atom.
	for i := 0; i < rel.Rows(); i++ {
		row := rel.Row(i)
		for j, id := range row {
			if v.Table.Term(id) != rel.Atoms[i].Args[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, v.Table.Term(id), rel.Atoms[i].Args[j])
			}
		}
	}
	if v.Relation("Q") != nil {
		t.Fatal("Relation of absent predicate should be nil")
	}
}

func TestInternedRangeMatchesByPos(t *testing.T) {
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	for _, c := range []term.Term{term.Const("a"), term.Const("b"), term.Const("c"), term.Const("z")} {
		for pos := 0; pos < 2; pos++ {
			want := ins.ByPos("E", pos, c)
			var got []Atom
			if id, ok := v.Table.Lookup(c); ok {
				lo, hi := rel.Range(pos, id)
				for k := lo; k < hi; k++ {
					got = append(got, rel.Atoms[rel.RowAt(pos, k)])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Range(%d,%v): %d atoms, ByPos has %d", pos, c, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("Range(%d,%v)[%d] = %v, ByPos order gives %v", pos, c, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInternedCacheInvalidation(t *testing.T) {
	ins := internedFixture(t)
	if ins.InternedCached() != nil {
		t.Fatal("cache populated before first Interned call")
	}
	v1 := ins.Interned()
	if ins.InternedCached() != v1 {
		t.Fatal("cache not populated")
	}
	if ins.Interned() != v1 {
		t.Fatal("Interned rebuilt without mutation")
	}
	if err := ins.Add(NewAtom("E", term.Const("c"), term.Const("a"))); err != nil {
		t.Fatal(err)
	}
	if ins.InternedCached() != nil {
		t.Fatal("Add did not invalidate cache")
	}
	v2 := ins.Interned()
	if v2.Relation("E").Rows() != 4 {
		t.Fatalf("rebuilt view has %d rows, want 4", v2.Relation("E").Rows())
	}
	ins.Remove(NewAtom("P", term.Const("a")))
	if ins.InternedCached() != nil {
		t.Fatal("Remove did not invalidate cache")
	}
	if ins.Interned().Relation("P") != nil {
		t.Fatal("removed predicate still has a relation")
	}
	// The old view must be unaffected by the mutations (private copies).
	if v1.Relation("E").Rows() != 3 || v1.Relation("P") == nil {
		t.Fatal("stale view corrupted by mutation")
	}
}

// TestInternedFind: the one ground-tuple lookup ApplyDelta's delete
// search and the delta evaluator's membership test share finds every
// row, and a miss on any term, the arity, or an absent predicate
// proves absence; a nullary relation holds its one row.
func TestInternedFind(t *testing.T) {
	ins := internedFixture(t)
	if err := ins.Add(NewAtom("T")); err != nil {
		t.Fatal(err)
	}
	v := ins.Interned()
	for _, pred := range []string{"E", "P", "T"} {
		rel := v.Relation(pred)
		for i, a := range rel.Atoms {
			if row, ok := rel.Find(v.Table, a.Args); !ok || row != i {
				t.Errorf("Find(%s) = %d, %v; want row %d", a, row, ok, i)
			}
		}
	}
	c := term.Const
	for _, miss := range []struct {
		pred string
		args []term.Term
	}{
		{"E", []term.Term{c("b"), c("a")}},
		{"E", []term.Term{c("a"), c("z")}},
		{"E", []term.Term{c("a")}},
		{"P", []term.Term{c("b")}},
		{"Q", []term.Term{c("a")}},
		{"Q", nil},
	} {
		if _, ok := v.Relation(miss.pred).Find(v.Table, miss.args); ok {
			t.Errorf("Find(%s%v) found a row", miss.pred, miss.args)
		}
	}
}

func TestAllocsInternedRangeProbe(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ins := internedFixture(t)
	v := ins.Interned()
	rel := v.Relation("E")
	id, ok := v.Table.Lookup(term.Const("a"))
	if !ok {
		t.Fatal("lookup miss")
	}
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		lo, hi := rel.Range(0, id)
		sink += hi - lo
	})
	if allocs != 0 {
		t.Fatalf("Range probe allocates %v per op, want 0", allocs)
	}
	_ = sink
	var sid symtab.ID
	allocs = testing.AllocsPerRun(1000, func() {
		got, _ := v.Table.Lookup(term.Const("b"))
		sid += got
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per op, want 0", allocs)
	}
}
