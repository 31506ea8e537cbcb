package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// coreRef is the clone-based core computation Core replaced, kept as
// the reference: every victim atom is removed from a fresh clone of the
// frozen query, and the image is built by applying two substitutions
// and deduplicating by atom key.
func coreRef(q *cq.CQ) *cq.CQ {
	cur := dedupByKey(q)
	for {
		next, shrunk := retractOnceRef(cur)
		if !shrunk {
			return cur
		}
		cur = next
	}
}

func retractOnceRef(cur *cq.CQ) (*cq.CQ, bool) {
	db, _ := cur.Freeze()
	init := term.NewSubst()
	for _, x := range cur.Free {
		init[x] = cq.FrozenConst(x)
	}
	for _, victim := range cur.Atoms {
		reduced := db.Clone()
		frozenVictim := victim.Clone()
		for i, t := range frozenVictim.Args {
			if t.IsVar() {
				frozenVictim.Args[i] = cq.FrozenConst(t)
			}
		}
		if !reduced.Remove(frozenVictim) {
			continue
		}
		h, ok := Find(cur.Atoms, reduced, init)
		if !ok {
			continue
		}
		frozenImage := term.NewSubst()
		thaw := term.NewSubst()
		for _, v := range cur.Vars() {
			img := h.Resolve(v)
			frozenImage[v] = img
			if cq.IsFrozenConst(img) {
				thaw[img] = cq.Thaw(img)
			}
		}
		next := dedupByKey(cur.ApplySubst(frozenImage).ApplySubst(thaw))
		if next.Size() < cur.Size() {
			return next, true
		}
	}
	return nil, false
}

func dedupByKey(q *cq.CQ) *cq.CQ {
	seen := make(map[string]bool, len(q.Atoms))
	out := q.Clone()
	atoms := out.Atoms[:0]
	for _, a := range out.Atoms {
		if k := a.Key(); !seen[k] {
			seen[k] = true
			atoms = append(atoms, a)
		}
	}
	out.Atoms = atoms
	return out
}

// randomCoreQuery draws a query with up to six atoms over a small
// variable pool (so retractions exist), some constants, and up to two
// free variables.
func randomCoreQuery(r *rand.Rand) *cq.CQ {
	preds := []struct {
		name  string
		arity int
	}{{"E", 2}, {"F", 2}, {"R", 3}, {"P", 1}}
	nv := 2 + r.Intn(4)
	var atoms []instance.Atom
	for n := 1 + r.Intn(6); len(atoms) < n; {
		p := preds[r.Intn(len(preds))]
		args := make([]term.Term, p.arity)
		for i := range args {
			if r.Intn(6) == 0 {
				args[i] = term.Const(fmt.Sprintf("c%d", r.Intn(2)))
			} else {
				args[i] = term.Var(fmt.Sprintf("x%d", r.Intn(nv)))
			}
		}
		atoms = append(atoms, instance.Atom{Pred: p.name, Args: args})
	}
	q := &cq.CQ{Name: "q", Atoms: atoms}
	for _, v := range q.Vars() {
		if len(q.Free) < 2 && r.Intn(4) == 0 {
			q.Free = append(q.Free, v)
		}
	}
	return q
}

// TestCoreMatchesReference: Core finds exactly the retractions the
// clone-based reference finds, so the cores agree atom for atom — the
// victim-excluding enumeration must visit candidates in the order the
// removed clone handed them out.
func TestCoreMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	shrunk := 0
	for trial := 0; trial < 20000; trial++ {
		q := randomCoreQuery(r)
		got, want := Core(q), coreRef(q)
		if got.String() != want.String() || len(got.Free) != len(want.Free) {
			t.Fatalf("trial %d: Core(%s)\n got %s\nwant %s", trial, q, got, want)
		}
		for i := range got.Atoms {
			if !got.Atoms[i].Equal(want.Atoms[i]) {
				t.Fatalf("trial %d: Core(%s) atom %d: got %s, want %s", trial, q, i, got.Atoms[i], want.Atoms[i])
			}
		}
		if got.Size() < dedupByKey(q).Size() {
			shrunk++
		}
	}
	if shrunk < 1000 {
		t.Fatalf("only %d of 20000 queries had a proper core; the generator lost its redundancy", shrunk)
	}
}

// TestAllocsCore guards the copy-free retraction: the core of a 6-atom
// path (already a core, so every victim is tried and fails) costs one
// frozen instance, not one clone per victim (the clone-based version
// took about 246).
func TestAllocsCore(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	q := cq.MustParse("q :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7).")
	if Core(q).Size() != 6 {
		t.Fatal("the 6-atom path should be its own core")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = Core(q) })
	t.Logf("Core of a 6-atom path: %v allocs", allocs)
	if allocs > 100 {
		t.Fatalf("Core allocates %v per call, want at most 100", allocs)
	}
}
