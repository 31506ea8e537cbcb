package instance

import (
	"testing"

	"semacyclic/internal/term"
)

func TestAtomConstructionCopiesArgs(t *testing.T) {
	args := []term.Term{term.Const("a")}
	a := NewAtom("R", args...)
	args[0] = term.Const("b")
	if a.Args[0] != term.Const("a") {
		t.Error("NewAtom shares caller slice")
	}
}

func TestAtomKeyUniqueness(t *testing.T) {
	cases := []Atom{
		NewAtom("R", term.Const("a"), term.Const("b")),
		NewAtom("R", term.Const("b"), term.Const("a")),
		NewAtom("R", term.Var("a"), term.Const("b")),
		NewAtom("R", term.NullTerm("a"), term.Const("b")),
		NewAtom("S", term.Const("a"), term.Const("b")),
		NewAtom("R", term.Const("a")),
		NewAtom("R", term.Const("ab")),
		NewAtom("R", term.Const("a"), term.Const("")),
	}
	seen := make(map[string]Atom)
	for _, a := range cases {
		if prev, ok := seen[a.Key()]; ok {
			t.Errorf("key collision between %s and %s", prev, a)
		}
		seen[a.Key()] = a
	}
	a := NewAtom("R", term.Const("a"))
	if a.Key() != NewAtom("R", term.Const("a")).Key() {
		t.Error("equal atoms have distinct keys")
	}
}

// TestAtomKeyInjectiveWithNUL: a NUL inside a name no longer passes
// for the argument separator, so atoms that used to share a key stay
// apart in an instance, while NUL-free atoms keep their plain key.
func TestAtomKeyInjectiveWithNUL(t *testing.T) {
	c := term.Const
	a := NewAtom("R", c("a\x00\x00b"), c("c"))
	b := NewAtom("R", c("a"), c("b\x00\x00c"))
	if a.Key() == b.Key() {
		t.Fatalf("%q and %q share key %q", a, b, a.Key())
	}
	ins := MustFromAtoms(a)
	if ins.Has(b) {
		t.Errorf("Has(%q) on an instance holding only %q", b, a)
	}
	ins = MustFromAtoms(a, b)
	if ins.Len() != 2 || !ins.Has(a) || !ins.Has(b) {
		t.Errorf("instance of two distinct atoms: Len %d, Has %v %v", ins.Len(), ins.Has(a), ins.Has(b))
	}
	for _, pair := range [][2]Atom{
		{NewAtom("R\x00", c("a")), NewAtom("R", c("\xffa"))},
		{NewAtom("R", c("\x00")), NewAtom("R", c(""), c(""))},
	} {
		if pair[0].Key() == pair[1].Key() {
			t.Errorf("%q and %q share key %q", pair[0], pair[1], pair[0].Key())
		}
	}
	plain := NewAtom("R", c("a"), term.NullTerm("n1"), c("\xff"))
	if got, want := plain.Key(), "R\x00\x00a\x00\x01n1\x00\x00\xff"; got != want {
		t.Errorf("NUL-free key %q, want %q", got, want)
	}
}

func TestAtomEqual(t *testing.T) {
	a := NewAtom("R", term.Const("a"), term.Var("x"))
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	if a.Equal(NewAtom("R", term.Const("a"))) {
		t.Error("different arity equal")
	}
	if a.Equal(NewAtom("S", term.Const("a"), term.Var("x"))) {
		t.Error("different pred equal")
	}
	if a.Equal(NewAtom("R", term.Const("a"), term.Var("y"))) {
		t.Error("different args equal")
	}
}

func TestAtomApply(t *testing.T) {
	s := term.Subst{term.Var("x"): term.Var("y"), term.Var("y"): term.Const("c")}
	a := NewAtom("R", term.Var("x"), term.Const("a"))
	got := a.Apply(s)
	if got.Args[0] != term.Const("c") || got.Args[1] != term.Const("a") {
		t.Errorf("Apply = %s", got)
	}
	if a.Args[0] != term.Var("x") {
		t.Error("Apply mutated receiver")
	}
}

func TestAtomTermsVars(t *testing.T) {
	a := NewAtom("R", term.Var("x"), term.Const("a"), term.Var("x"), term.NullTerm("n"))
	ts := a.Terms()
	if len(ts) != 3 {
		t.Errorf("Terms = %v", ts)
	}
	vs := a.Vars()
	if len(vs) != 1 || vs[0] != term.Var("x") {
		t.Errorf("Vars = %v", vs)
	}
	if !a.HasVars() {
		t.Error("HasVars false")
	}
	if NewAtom("R", term.Const("a")).HasVars() {
		t.Error("HasVars true on ground atom")
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("R", term.Var("x"), term.Const("a"))
	if got := a.String(); got != "R(?x,a)" {
		t.Errorf("String = %q", got)
	}
}

func TestSortAndCompareAtoms(t *testing.T) {
	a := NewAtom("R", term.Const("b"))
	b := NewAtom("R", term.Const("a"))
	c := NewAtom("Q", term.Const("z"))
	d := NewAtom("R", term.Const("a"), term.Const("a"))
	list := []Atom{a, b, c, d}
	SortAtoms(list)
	want := []Atom{c, b, a, d}
	for i := range want {
		if !list[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %s, want %s", i, list[i], want[i])
		}
	}
	if CompareAtoms(a, a) != 0 {
		t.Error("Compare self nonzero")
	}
}
