package instance

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"semacyclic/internal/term"
)

func atomR(a, b string) Atom { return NewAtom("R", term.Const(a), term.Const(b)) }

func TestAddHasLen(t *testing.T) {
	ins := New()
	if err := ins.Add(atomR("a", "b")); err != nil {
		t.Fatal(err)
	}
	if !ins.Has(atomR("a", "b")) || ins.Len() != 1 {
		t.Error("membership after add wrong")
	}
	// Duplicate add is a no-op.
	added, err := ins.AddReport(atomR("a", "b"))
	if err != nil || added {
		t.Errorf("duplicate add: added=%v err=%v", added, err)
	}
	if ins.Len() != 1 {
		t.Errorf("Len after dup = %d", ins.Len())
	}
}

func TestAddRejectsVariablesAndArityConflicts(t *testing.T) {
	ins := New()
	if err := ins.Add(NewAtom("R", term.Var("x"))); err == nil {
		t.Error("variable atom accepted")
	}
	if err := ins.Add(atomR("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := ins.Add(NewAtom("R", term.Const("a"))); err == nil {
		t.Error("arity conflict accepted")
	}
}

func TestFromAtomsAndMust(t *testing.T) {
	ins, err := FromAtoms(atomR("a", "b"), atomR("b", "c"))
	if err != nil || ins.Len() != 2 {
		t.Fatalf("FromAtoms: %v %v", ins, err)
	}
	if _, err := FromAtoms(NewAtom("R", term.Var("x"), term.Var("y"))); err == nil {
		t.Error("FromAtoms accepted variables")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFromAtoms did not panic")
		}
	}()
	MustFromAtoms(NewAtom("R", term.Var("x")))
}

func TestRemove(t *testing.T) {
	ins := MustFromAtoms(atomR("a", "b"), atomR("b", "c"))
	if !ins.Remove(atomR("a", "b")) {
		t.Error("Remove returned false for present atom")
	}
	if ins.Remove(atomR("a", "b")) {
		t.Error("Remove returned true for absent atom")
	}
	if ins.Has(atomR("a", "b")) || ins.Len() != 1 {
		t.Error("atom still present after remove")
	}
	if got := ins.ByPos("R", 0, term.Const("a")); len(got) != 0 {
		t.Errorf("index not cleaned: %v", got)
	}
	if got := ins.ByPred("R"); len(got) != 1 || !got[0].Equal(atomR("b", "c")) {
		t.Errorf("ByPred after remove = %v", got)
	}
}

func TestIndexes(t *testing.T) {
	ins := MustFromAtoms(atomR("a", "b"), atomR("a", "c"), atomR("b", "c"),
		NewAtom("S", term.Const("a")))
	if got := ins.ByPred("R"); len(got) != 3 {
		t.Errorf("ByPred(R) = %v", got)
	}
	if got := ins.ByPos("R", 0, term.Const("a")); len(got) != 2 {
		t.Errorf("ByPos(R,0,a) = %v", got)
	}
	if got := ins.ByPos("R", 1, term.Const("c")); len(got) != 2 {
		t.Errorf("ByPos(R,1,c) = %v", got)
	}
	if got := ins.ByPos("R", 0, term.Const("zzz")); len(got) != 0 {
		t.Errorf("ByPos miss = %v", got)
	}
}

func TestTermsAndNulls(t *testing.T) {
	n := term.NullTerm("n1")
	ins := MustFromAtoms(NewAtom("R", term.Const("a"), n), NewAtom("R", n, n))
	ts := ins.Terms()
	if len(ts) != 2 {
		t.Errorf("Terms = %v", ts)
	}
	ns := ins.Nulls()
	if len(ns) != 1 || ns[0] != n {
		t.Errorf("Nulls = %v", ns)
	}
}

func TestCloneIndependent(t *testing.T) {
	ins := MustFromAtoms(atomR("a", "b"))
	c := ins.Clone()
	if err := c.Add(atomR("x", "y")); err != nil {
		t.Fatal(err)
	}
	if ins.Len() != 1 || c.Len() != 2 {
		t.Error("Clone shares storage")
	}
	if !ins.Equal(ins.Clone()) {
		t.Error("clone not Equal")
	}
}

func TestReplaceTerm(t *testing.T) {
	n1, n2 := term.NullTerm("n1"), term.NullTerm("n2")
	ins := MustFromAtoms(
		NewAtom("R", n1, term.Const("a")),
		NewAtom("R", n2, term.Const("a")),
		NewAtom("S", n1, n1),
	)
	ins.ReplaceTerm(n1, n2)
	if ins.Len() != 2 { // the two R-atoms merged
		t.Errorf("Len after replace = %d: %s", ins.Len(), ins)
	}
	if !ins.Has(NewAtom("S", n2, n2)) {
		t.Errorf("S atom not rewritten: %s", ins)
	}
	if got := ins.ByPos("S", 0, n1); len(got) != 0 {
		t.Error("stale index entry for old term")
	}
	if got := ins.ByPos("S", 0, n2); len(got) != 1 {
		t.Error("missing index entry for new term")
	}
	// Replacing with itself is a no-op.
	before := ins.String()
	ins.ReplaceTerm(n2, n2)
	if ins.String() != before {
		t.Error("self-replace changed instance")
	}
}

func TestUnionEqualString(t *testing.T) {
	a := MustFromAtoms(atomR("a", "b"))
	b := MustFromAtoms(atomR("b", "c"), atomR("a", "b"))
	if _, err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Errorf("union len = %d", a.Len())
	}
	if _, err := a.Union(nil); err != nil {
		t.Errorf("union with nil: %v", err)
	}
	if a.Equal(MustFromAtoms(atomR("a", "b"))) {
		t.Error("Equal wrong on different sizes")
	}
	if !a.Equal(MustFromAtoms(atomR("a", "b"), atomR("b", "c"))) {
		t.Error("Equal wrong on same atoms")
	}
	if a.Equal(MustFromAtoms(atomR("a", "b"), atomR("x", "y"))) {
		t.Error("Equal wrong on same size different atoms")
	}
	if got := MustFromAtoms(atomR("a", "b")).String(); got != "{R(a,b)}" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaGrows(t *testing.T) {
	ins := MustFromAtoms(atomR("a", "b"), NewAtom("S", term.Const("a")))
	sch := ins.Schema()
	if a, ok := sch.Arity("R"); !ok || a != 2 {
		t.Error("schema missing R/2")
	}
	if a, ok := sch.Arity("S"); !ok || a != 1 {
		t.Error("schema missing S/1")
	}
}

// Property: after any sequence of adds and removes, the positional
// index agrees with a scan of the atom set.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(ops [12]uint8) bool {
		ins := New()
		pool := []Atom{
			atomR("a", "b"), atomR("b", "a"), atomR("a", "a"),
			NewAtom("S", term.Const("a")), NewAtom("S", term.Const("b")),
		}
		for _, op := range ops {
			a := pool[int(op)%len(pool)]
			if op%2 == 0 {
				if err := ins.Add(a); err != nil {
					return false
				}
			} else {
				ins.Remove(a)
			}
		}
		// Check index completeness and soundness.
		for _, a := range ins.AtomsUnordered() {
			for i, tm := range a.Args {
				found := false
				for _, hit := range ins.ByPos(a.Pred, i, tm) {
					if hit.Equal(a) {
						found = true
					}
					if !ins.Has(hit) {
						return false // index points at removed atom
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	ins := MustFromAtoms(
		NewAtom("R", term.Const("a"), term.Const("b")),
		NewAtom("S", term.Const(" padded ")),
	)
	out, err := ins.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "R(a, b).") || !strings.Contains(out, "S(' padded ').") {
		t.Errorf("Dump = %q", out)
	}
	// Nulls, invalid UTF-8 and non-identifier predicates are rejected;
	// everything else — delimiters, quotes, the empty constant — is
	// representable via quoting and must round-trip through Parse.
	withNull := MustFromAtoms(NewAtom("R", term.FreshNull(), term.Const("a")))
	if _, err := withNull.Dump(); err == nil {
		t.Error("null dumped")
	}
	if _, err := MustFromAtoms(NewAtom("R", term.Const("a\xffb"))).Dump(); err == nil {
		t.Error("invalid-UTF-8 constant dumped")
	}
	if _, err := MustFromAtoms(NewAtom("R S", term.Const("a"))).Dump(); err == nil {
		t.Error("non-identifier predicate dumped")
	}
	nasty := MustFromAtoms(
		NewAtom("R", term.Const("a,b"), term.Const("v1.2")),
		NewAtom("R", term.Const(""), term.Const("it's")),
		NewAtom("R", term.Const(`back\slash`), term.Const("new\nline")),
	)
	dump, err := nasty.Dump()
	if err != nil {
		t.Fatalf("nasty constants not dumpable: %v", err)
	}
	back, err := Parse(dump)
	if err != nil {
		t.Fatalf("Parse(Dump) failed: %v\ndump:\n%s", err, dump)
	}
	if !back.Equal(nasty) {
		t.Errorf("Parse(Dump) != original:\n%s\nvs\n%s", back, nasty)
	}
}

// TestIndexOrderMapOrderDeterministic: ByPred and ByPos order is a
// function of the operation history alone. Clone copies it, and
// ReplaceTerm and Union rewrite and add in a fixed order, so 100 runs
// of the same Clone/ReplaceTerm/Union sequence build identical lists.
func TestIndexOrderMapOrderDeterministic(t *testing.T) {
	c := func(i int) term.Term { return term.Const(fmt.Sprintf("c%d", i%13)) }
	n := func(i int) term.Term { return term.NullTerm(fmt.Sprintf("n%d", i%5)) }
	render := func() string {
		base := New()
		other := New()
		for i := 0; i < 60; i++ {
			base.Add(NewAtom("E", c(i), c(7*i+3)))
			base.Add(NewAtom("F", n(i), c(i)))
			other.Add(NewAtom("G", c(3*i), n(i)))
			other.Add(NewAtom("E", c(5*i+1), c(i)))
		}
		ins := base.Clone()
		ins.ReplaceTerm(n(1), c(2))
		ins.ReplaceTerm(c(4), n(3))
		if _, err := ins.Union(other); err != nil {
			t.Fatal(err)
		}
		ins = ins.Clone()
		var b strings.Builder
		for _, p := range []string{"E", "F", "G"} {
			fmt.Fprintln(&b, p, ins.ByPred(p))
			for pos := 0; pos < 2; pos++ {
				for i := 0; i < 13; i++ {
					fmt.Fprintln(&b, p, pos, i, ins.ByPos(p, pos, c(i)))
				}
			}
		}
		return b.String()
	}
	want := render()
	for i := 0; i < 100; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d: index order differs\n%s\nfirst run:\n%s", i, got, want)
		}
	}
}
