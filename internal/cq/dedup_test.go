package cq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// dedupByKey is the key-based DedupAtoms the Equal scan replaced, kept
// as the reference.
func dedupByKey(q *CQ) *CQ {
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

// TestDedupAtomsMatchesReference: DedupAtoms keeps exactly the atoms the
// key-based reference keeps, in the same order, over names with NUL
// bytes and terms of every kind sharing a name; and its output shares
// no memory with its input.
func TestDedupAtomsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(183))
	pool := []term.Term{
		term.Var("x"), term.Var("y"), term.Var("a\x00b"),
		term.NullTerm("x"), term.Const("x"), term.Const("a\x00b"), term.Const("a"),
	}
	preds := []string{"E", "F", "E\x00"}
	for trial := 0; trial < 5000; trial++ {
		q := &CQ{Name: "q"}
		for n := r.Intn(9); len(q.Atoms) < n; {
			if len(q.Atoms) > 0 && r.Intn(3) == 0 {
				q.Atoms = append(q.Atoms, q.Atoms[r.Intn(len(q.Atoms))].Clone())
				continue
			}
			args := make([]term.Term, 1+r.Intn(3))
			for i := range args {
				args[i] = pool[r.Intn(len(pool))]
			}
			q.Atoms = append(q.Atoms, instance.Atom{Pred: preds[r.Intn(len(preds))], Args: args})
		}
		if r.Intn(2) == 0 {
			q.Free = []term.Term{term.Var("x")}
		}
		before := q.Clone()
		got, want := q.DedupAtoms(), dedupByKey(q)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(got.Atoms) != len(want.Atoms) {
			t.Fatalf("trial %d: DedupAtoms(%v)\n got %v\nwant %v", trial, q.Atoms, got.Atoms, want.Atoms)
		}
		for i := range got.Atoms {
			if !got.Atoms[i].Equal(want.Atoms[i]) {
				t.Fatalf("trial %d: atom %d = %v, want %v", trial, i, got.Atoms[i], want.Atoms[i])
			}
		}
		// Overwrite every output term: the input must not change.
		for _, a := range got.Atoms {
			for i := range a.Args {
				a.Args[i] = term.Const("clobbered")
			}
		}
		for i := range got.Free {
			got.Free[i] = term.Const("clobbered")
		}
		if q.String() != before.String() {
			t.Fatalf("trial %d: DedupAtoms output aliases its input: %s became %s", trial, before, q)
		}
	}
}

// TestAllocsDedupAtoms guards the one-slab copy: a 6-atom path costs the
// query, its free list, its atom list and one argument slab (the
// key-based version took 14).
func TestAllocsDedupAtoms(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	q := MustParse("q(x1) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7).")
	allocs := testing.AllocsPerRun(200, func() { _ = q.DedupAtoms() })
	t.Logf("DedupAtoms of a 6-atom path: %v allocs", allocs)
	if allocs > 4 {
		t.Fatalf("DedupAtoms allocates %v per call, want at most 4", allocs)
	}
}

// TestParseRejectsFrozenConstants: constants in the namespace freezing
// uses would thaw into variables (hom.Core turned E(x,'\x01c:w') into
// E(x,w)), so the parser refuses them like any invalid query.
func TestParseRejectsFrozenConstants(t *testing.T) {
	for _, src := range []string{
		"q :- E(x,y), E(x,'\x01c:w').",
		"q :- E(x,'\x01c:').",
		"q(x) :- E(x,'\x01c:x').",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "reserved frozen namespace") {
			t.Errorf("Parse(%q) err = %v, want a reserved-namespace error", src, err)
		}
	}
	// Names that only contain the marker elsewhere stay legal.
	for _, src := range []string{"q :- E(x,'a\x01c:w').", "q :- E(x,'\x01c').", "q :- E(x,'\x01').", "q :- E(x,'c:w')."} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestValidateRejectsFrozenConstants: the programmatic path refuses the
// reserved namespace too, since Decide and CompilePlan validate with it.
func TestValidateRejectsFrozenConstants(t *testing.T) {
	q := &CQ{Name: "q", Atoms: []instance.Atom{
		instance.NewAtom("E", term.Var("x"), term.Var("y")),
		instance.NewAtom("E", term.Var("x"), FrozenConst(term.Var("w"))),
	}}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "reserved frozen namespace") {
		t.Fatalf("Validate err = %v, want a reserved-namespace error", err)
	}
	if _, err := New(nil, q.Atoms); err == nil {
		t.Fatal("New accepted a frozen constant")
	}
}

// TestValidateRejectsReservedVariables: a variable in the frozen
// namespace is refused as well, because the UCQ rewriting names its
// copies of tgd variables there; a query holding one could capture
// them. Variables that only contain the marker elsewhere stay legal.
func TestValidateRejectsReservedVariables(t *testing.T) {
	q := &CQ{Name: "q", Atoms: []instance.Atom{
		instance.NewAtom("E", term.Var("x"), term.Var(term.FrozenPrefix+"0")),
	}}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "reserved frozen namespace") {
		t.Fatalf("Validate err = %v, want a reserved-namespace error", err)
	}
	ok := &CQ{Name: "q", Atoms: []instance.Atom{
		instance.NewAtom("E", term.Var("x"), term.Var("a"+term.FrozenPrefix)),
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
