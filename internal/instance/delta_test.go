package instance

import (
	"errors"
	"testing"

	"semacyclic/internal/term"
)

// mustAtoms parses a ground-atom batch or fails the test.
func mustAtoms(t *testing.T, input string) []Atom {
	t.Helper()
	atoms, err := ParseAtoms(input)
	if err != nil {
		t.Fatalf("ParseAtoms(%q): %v", input, err)
	}
	return atoms
}

// mustDB parses a database or fails the test.
func mustDB(t *testing.T, input string) *Instance {
	t.Helper()
	db, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return db
}

func TestApplyDeltaNetSemantics(t *testing.T) {
	db := mustDB(t, "E(a,b). E(b,c).")
	before := db.Epoch()

	// Duplicate inserts collapse; inserting a present atom and deleting
	// an absent one are no-ops; a repeated delete counts once.
	res, err := db.ApplyDelta(
		mustAtoms(t, "E(c,d). E(c,d). E(a,b)."),
		mustAtoms(t, "E(b,c). E(b,c). E(zz,zz)."))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Errorf("net counts = +%d −%d, want +1 −1", res.Inserted, res.Deleted)
	}
	if res.Epoch != before+1 || db.Epoch() != before+1 {
		t.Errorf("epoch = %d (instance %d), want %d: one batch is one epoch",
			res.Epoch, db.Epoch(), before+1)
	}
	want := mustDB(t, "E(a,b). E(c,d).")
	if !db.Equal(want) {
		t.Errorf("patched instance = %v, want %v", db.Atoms(), want.Atoms())
	}

	// An atom deleted and inserted in the same batch nets out: when it
	// was already present nothing changes, not even the counts.
	res, err = db.ApplyDelta(mustAtoms(t, "E(a,b)."), mustAtoms(t, "E(a,b)."))
	if err != nil {
		t.Fatalf("ApplyDelta (cancelling pair): %v", err)
	}
	if res.Inserted != 0 || res.Deleted != 0 {
		t.Errorf("cancelling pair: net counts = +%d −%d, want +0 −0", res.Inserted, res.Deleted)
	}
	if !db.Equal(want) {
		t.Errorf("cancelling pair changed the instance: %v", db.Atoms())
	}
}

func TestApplyDeltaAtomicValidation(t *testing.T) {
	db := mustDB(t, "E(a,b).")
	before, length := db.Epoch(), db.Len()

	cases := []struct {
		name     string
		ins, del string
	}{
		{"schema clash", "E(a).", ""},
		{"within-batch clash", "F(a). F(a,b).", ""},
		{"clash on the delete side", "", "E(a,b,c)."},
	}
	for _, tc := range cases {
		_, err := db.ApplyDelta(mustAtoms(t, tc.ins), mustAtoms(t, tc.del))
		if !errors.Is(err, ErrArityClash) {
			t.Errorf("%s: err = %v, want ErrArityClash", tc.name, err)
		}
	}
	if _, err := db.ApplyDelta([]Atom{NewAtom("E", term.Var("x"), term.Const("b"))}, nil); err == nil {
		t.Error("variable atom accepted")
	}
	if db.Epoch() != before || db.Len() != length {
		t.Errorf("rejected batches mutated the instance: epoch %d→%d, len %d→%d",
			before, db.Epoch(), length, db.Len())
	}
}

// sameView checks a patched view against one built from scratch over
// atoms: every predicate present in the same views, with the same row
// count, and every rebuilt atom found by Find in a row that decodes
// back to it. Row numbers may differ: repairs keep surviving rows in
// order where ByPred refills a removed atom's slot.
func sameView(t *testing.T, step string, got *InternedView, atoms []Atom) {
	t.Helper()
	rebuilt, err := FromAtoms(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	want := rebuilt.Interned()
	for _, pred := range []string{"E", "P", "T"} {
		gr, wr := got.Relation(pred), want.Relation(pred)
		if (gr == nil) != (wr == nil) {
			t.Fatalf("%s: pred %s: patched present=%v rebuilt present=%v", step, pred, gr != nil, wr != nil)
		}
		if gr == nil {
			if _, ok := gr.Find(got.Table, nil); ok {
				t.Errorf("%s: Find on absent %s found a row", step, pred)
			}
			continue
		}
		if gr.Rows() != wr.Rows() {
			t.Errorf("%s: pred %s: patched %d rows, rebuilt %d", step, pred, gr.Rows(), wr.Rows())
		}
		for _, a := range rebuilt.ByPred(pred) {
			row, ok := gr.Find(got.Table, a.Args)
			if !ok {
				t.Errorf("%s: Find(%s) missed in the patched view", step, a)
				continue
			}
			for j, id := range gr.Row(row) {
				if got.Table.Term(id) != a.Args[j] {
					t.Errorf("%s: Find(%s) = row %d, which decodes %v at %d", step, a, row, got.Table.Term(id), j)
				}
			}
		}
	}
}

func TestApplyDeltaMaintainsInternedView(t *testing.T) {
	db := mustDB(t, "E(a,b). E(b,c). P(a).")
	v0 := db.Interned()
	if db.interned.Load() != v0 {
		t.Fatal("view not cached after Interned()")
	}

	if _, err := db.ApplyDelta(mustAtoms(t, "E(c,d). P(d). T()."), mustAtoms(t, "E(a,b).")); err != nil {
		t.Fatal(err)
	}
	v1 := db.interned.Load()
	if v1 == nil {
		t.Fatal("ApplyDelta invalidated the cached view; want incremental repair")
	}
	if v1 == v0 {
		t.Fatal("ApplyDelta left the stale view in place")
	}
	// The repaired view must be indistinguishable from one built from
	// scratch over the patched atom set, the nullary T() included: one
	// row and an empty id matrix.
	sameView(t, "insert T()", v1, db.Atoms())

	// Deleting T() drops the relation, through an overlay's detached
	// patch and through ApplyDelta; an overlay re-inserting it over a
	// base without it brings it back.
	overlaid := func(step string, ins, del []Atom) {
		t.Helper()
		ov, err := db.NewOverlay(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		sameView(t, step, ov.Interned(), mat.Atoms())
	}
	overlaid("overlay delete T()", nil, mustAtoms(t, "T()."))
	if _, err := db.ApplyDelta(nil, mustAtoms(t, "T().")); err != nil {
		t.Fatal(err)
	}
	sameView(t, "delete T()", db.interned.Load(), db.Atoms())
	overlaid("overlay insert T()", mustAtoms(t, "T()."), nil)

	// Bare mutations take the slow path: the view is dropped, not
	// patched.
	if !db.Remove(NewAtom("P", term.Const("a"))) {
		t.Fatal("Remove(P(a)) found nothing to remove")
	}
	if db.interned.Load() != nil {
		t.Error("bare Remove should invalidate the cached view")
	}
}

func TestOverlayWhatIf(t *testing.T) {
	db := mustDB(t, "E(a,b). E(b,c).")
	baseEpoch, baseLen := db.Epoch(), db.Len()

	ov, err := db.NewOverlay(mustAtoms(t, "E(c,d). E(a,b)."), mustAtoms(t, "E(b,c)."))
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	if ov.Len() != 2 {
		t.Errorf("overlay Len = %d, want 2 (one effective insert, one delete)", ov.Len())
	}
	if db.Epoch() != baseEpoch || db.Len() != baseLen {
		t.Errorf("NewOverlay mutated the base: epoch %d→%d, len %d→%d",
			baseEpoch, db.Epoch(), baseLen, db.Len())
	}

	// Materialize must agree with applying the same delta for real.
	mat, err := ov.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	applied := mustDB(t, "E(a,b). E(b,c).")
	if _, err := applied.ApplyDelta(mustAtoms(t, "E(c,d). E(a,b)."), mustAtoms(t, "E(b,c).")); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(applied) {
		t.Errorf("Materialize = %v, ApplyDelta = %v", mat.Atoms(), applied.Atoms())
	}

	if ov.Stale() {
		t.Error("overlay stale before any base mutation")
	}
	if _, err := db.ApplyDelta(mustAtoms(t, "E(x,y)."), nil); err != nil {
		t.Fatal(err)
	}
	if !ov.Stale() {
		t.Error("overlay not stale after the base moved epochs")
	}

	if _, err := db.NewOverlay(mustAtoms(t, "E(only_one)."), nil); !errors.Is(err, ErrArityClash) {
		t.Errorf("overlay arity clash: err = %v, want ErrArityClash", err)
	}
}

// TestOverlayCommit: committing an overlay is ApplyDelta of the same
// batch — same atoms, epoch and counts — and a stale overlay, a
// committed one included, refuses and changes nothing.
func TestOverlayCommit(t *testing.T) {
	ins, del := mustAtoms(t, "E(c,d). E(a,b). E(c,d)."), mustAtoms(t, "E(b,c). E(x,x).")
	db := mustDB(t, "E(a,b). E(b,c).")
	db.Interned()
	ov, err := db.NewOverlay(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ov.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	applied := mustDB(t, "E(a,b). E(b,c).")
	applied.Interned()
	want, err := applied.ApplyDelta(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !db.Equal(applied) {
		t.Fatalf("Commit = %+v over %v, ApplyDelta = %+v over %v", got, db.Atoms(), want, applied.Atoms())
	}
	sameView(t, "commit", db.interned.Load(), applied.Atoms())

	if _, err := ov.Commit(); !errors.Is(err, ErrStaleOverlay) {
		t.Fatalf("second Commit: err = %v, want ErrStaleOverlay", err)
	}
	ov, err = db.NewOverlay(mustAtoms(t, "E(y,z)."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyDelta(mustAtoms(t, "E(p,q)."), nil); err != nil {
		t.Fatal(err)
	}
	epoch, n := db.Epoch(), db.Len()
	if _, err := ov.Commit(); !errors.Is(err, ErrStaleOverlay) {
		t.Fatalf("stale Commit: err = %v, want ErrStaleOverlay", err)
	}
	if db.Epoch() != epoch || db.Len() != n || db.Has(NewAtom("E", term.Const("y"), term.Const("z"))) {
		t.Fatal("a refused Commit changed the base")
	}
}

// TestDeltaRelationFamilies checks the rule incremental evaluation
// reads a change by: a relation repaired by insert-only batches holds
// its predecessor's rows as a prefix, with ids that decode to the same
// terms, and every other history — a delete, a rebuild after a bare
// mutation, an overlay's patch, a relation emptied and re-created —
// breaks the prefix.
func TestDeltaRelationFamilies(t *testing.T) {
	db := mustDB(t, "E(a,b). E(b,c). P(a).")
	apply := func(ins, del string) *InternedView {
		t.Helper()
		if _, err := db.ApplyDelta(mustAtoms(t, ins), mustAtoms(t, del)); err != nil {
			t.Fatal(err)
		}
		return db.Interned()
	}
	appended := func(step string, r, old *InternedRelation, wantN int, wantOK bool) {
		t.Helper()
		if n, ok := r.Appended(old); n != wantN || ok != wantOK {
			t.Errorf("%s: Appended = %d, %v; want %d, %v", step, n, ok, wantN, wantOK)
		}
	}
	changes := func(step string, r, old *InternedRelation, wantGained, wantLost int) {
		t.Helper()
		if g, l := r.Changes(old); g != wantGained || l != wantLost {
			t.Errorf("%s: Changes = +%d −%d; want +%d −%d", step, g, l, wantGained, wantLost)
		}
	}

	v0 := db.Interned()
	e0, p0 := v0.Relation("E"), v0.Relation("P")
	v1 := apply("E(c,d). E(d,a).", "")
	e1 := v1.Relation("E")
	if v1.Relation("P") != p0 {
		t.Fatal("the insert-only batch did not share the untouched P")
	}
	appended("insert", e1, e0, 2, true)
	changes("insert", e1, e0, 2, 0)
	for r := 0; r < e0.Rows(); r++ {
		for j, id := range e1.Row(r) {
			if got, want := v1.Table.Term(id), v0.Table.Term(e0.Row(r)[j]); got != want {
				t.Errorf("insert: prefix row %d col %d decodes %v, was %v", r, j, got, want)
			}
		}
	}
	appended("same relation", e1, e1, 4, true)
	changes("same relation", e1, e1, 0, 0)
	appended("nil old", e1, nil, 0, true)
	changes("nil old", e1, nil, 4, 0)

	// A delete breaks the prefix against every older relation of the
	// family; the counts still add up per batch.
	e2 := apply("E(e,e).", "E(a,b).").Relation("E")
	appended("delete", e2, e1, 0, false)
	appended("delete, two batches", e2, e0, 0, false)
	changes("delete", e2, e1, 1, 1)
	changes("delete, two batches", e2, e0, 3, 1)
	e3 := apply("E(f,f).", "").Relation("E")
	appended("insert after delete", e3, e2, 4, true)

	// An overlay's touched relation starts its own family, so the base
	// repair that commits the very same atom is not its successor.
	ov, err := db.NewOverlay(mustAtoms(t, "E(x,y)."), nil)
	if err != nil {
		t.Fatal(err)
	}
	oe := ov.Interned().Relation("E")
	appended("overlay over base", oe, e3, 0, false)
	changes("overlay over base", oe, e3, 0, 0)
	e4 := apply("E(x,y).", "").Relation("E")
	appended("base repair after overlay", e4, oe, 0, false)
	appended("base repair after overlay, base", e4, e3, 5, true)

	// A bare Add rebuilds the view: its relations are unrelated to the
	// old ones, the untouched P included.
	if err := db.Add(NewAtom("P", term.Const("b"))); err != nil {
		t.Fatal(err)
	}
	v5 := db.Interned()
	e5, p5 := v5.Relation("E"), v5.Relation("P")
	appended("rebuilt", e5, e4, 0, false)
	changes("rebuilt", e5, e4, 0, 0)
	appended("rebuilt, untouched", p5, p0, 0, false)

	// Emptied and re-created: the gone relation holds no prefix, and
	// the new one starts a family of its own.
	var none *InternedRelation
	if none = apply("", "P(a). P(b).").Relation("P"); none != nil {
		t.Fatal("deleting every P atom left a relation")
	}
	appended("emptied", none, p5, 0, false)
	changes("emptied", none, p5, 0, 2)
	appended("absent", none, none, 0, true)
	p7 := apply("P(a).", "").Relation("P")
	appended("re-created", p7, p5, 0, false)
	appended("re-created over absent", p7, none, 0, true)
	changes("re-created over absent", p7, none, 1, 0)
}
