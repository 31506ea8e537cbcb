package term

import (
	"bytes"
	"cmp"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Constant: "constant", Null: "null", Variable: "variable", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndPredicates(t *testing.T) {
	c := Const("a")
	n := NullTerm("z1")
	v := Var("x")
	if !c.IsConst() || c.IsNull() || c.IsVar() {
		t.Errorf("Const predicates wrong: %+v", c)
	}
	if !n.IsNull() || n.IsConst() || n.IsVar() {
		t.Errorf("Null predicates wrong: %+v", n)
	}
	if !v.IsVar() || v.IsConst() || v.IsNull() {
		t.Errorf("Var predicates wrong: %+v", v)
	}
}

func TestTermString(t *testing.T) {
	if got := Const("a").String(); got != "a" {
		t.Errorf("const string = %q", got)
	}
	if got := NullTerm("z").String(); got != "_:z" {
		t.Errorf("null string = %q", got)
	}
	if got := Var("x").String(); got != "?x" {
		t.Errorf("var string = %q", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ts := []Term{Const("a"), Const("b"), NullTerm("a"), Var("a"), Var("b")}
	for i := range ts {
		for j := range ts {
			c := ts[i].Compare(ts[j])
			switch {
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v)=%d, want 0", ts[i], ts[j], c)
			case i < j && c >= 0:
				t.Errorf("Compare(%v,%v)=%d, want <0", ts[i], ts[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v,%v)=%d, want >0", ts[i], ts[j], c)
			}
		}
	}
}

func TestFreshNullDistinct(t *testing.T) {
	seen := make(map[Term]bool)
	for i := 0; i < 1000; i++ {
		n := FreshNull()
		if !n.IsNull() {
			t.Fatalf("FreshNull returned %v", n)
		}
		if seen[n] {
			t.Fatalf("duplicate fresh null %v", n)
		}
		seen[n] = true
	}
}

func TestFreshVarDistinctFromNulls(t *testing.T) {
	v := FreshVar()
	if !v.IsVar() {
		t.Fatalf("FreshVar returned %v", v)
	}
	n := FreshNull()
	if v == n {
		t.Fatalf("fresh var equals fresh null: %v", v)
	}
}

func TestSubstApplyResolve(t *testing.T) {
	s := Subst{Var("x"): Var("y"), Var("y"): Const("a")}
	if got := s.Apply(Var("x")); got != Var("y") {
		t.Errorf("Apply(x) = %v, want ?y", got)
	}
	if got := s.Resolve(Var("x")); got != Const("a") {
		t.Errorf("Resolve(x) = %v, want a", got)
	}
	if got := s.Apply(Const("c")); got != Const("c") {
		t.Errorf("Apply on constant changed it: %v", got)
	}
	if got := s.Apply(Var("unbound")); got != Var("unbound") {
		t.Errorf("Apply on unbound changed it: %v", got)
	}
}

func TestSubstResolveCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cyclic substitution")
		}
	}()
	s := Subst{Var("x"): Var("y"), Var("y"): Var("x")}
	s.Resolve(Var("x"))
}

func TestSubstTupleHelpers(t *testing.T) {
	s := Subst{Var("x"): Const("a")}
	in := []Term{Var("x"), Const("b"), Var("z")}
	got := s.ApplyTuple(in)
	want := []Term{Const("a"), Const("b"), Var("z")}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ApplyTuple[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &in[0] == &got[0] {
		t.Error("ApplyTuple must return a fresh slice")
	}
	got2 := s.ResolveTuple(in)
	for i := range want {
		if got2[i] != want[i] {
			t.Errorf("ResolveTuple[%d] = %v, want %v", i, got2[i], want[i])
		}
	}
}

func TestSubstCloneIndependent(t *testing.T) {
	s := Subst{Var("x"): Const("a")}
	c := s.Clone()
	c[Var("y")] = Const("b")
	if _, ok := s[Var("y")]; ok {
		t.Error("Clone shares storage with original")
	}
}

func TestSubstCompose(t *testing.T) {
	s := Subst{Var("x"): Var("y")}
	u := Subst{Var("y"): Const("a"), Var("z"): Const("b")}
	c := s.Compose(u)
	if got := c.Apply(Var("x")); got != Const("a") {
		t.Errorf("compose x = %v, want a", got)
	}
	if got := c.Apply(Var("z")); got != Const("b") {
		t.Errorf("compose z = %v, want b", got)
	}
}

func TestSubstDomainSortedAndString(t *testing.T) {
	s := Subst{Var("y"): Const("b"), Var("x"): Const("a")}
	d := s.Domain()
	if len(d) != 2 || d[0] != Var("x") || d[1] != Var("y") {
		t.Errorf("Domain = %v", d)
	}
	if got := s.String(); got != "{?x↦a, ?y↦b}" {
		t.Errorf("String = %q", got)
	}
}

func TestUnifyBasics(t *testing.T) {
	x, y := Var("x"), Var("y")
	a, b := Const("a"), Const("b")

	s, err := Unify([]Term{x, a}, []Term{b, y}, nil)
	if err != nil {
		t.Fatalf("unify failed: %v", err)
	}
	if s.Resolve(x) != b || s.Resolve(y) != a {
		t.Errorf("unify result %v", s)
	}

	if _, err := Unify([]Term{a}, []Term{b}, nil); err == nil {
		t.Error("expected constant clash")
	}
	if _, err := Unify([]Term{a}, []Term{a, b}, nil); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestUnifyTransitiveClash(t *testing.T) {
	x := Var("x")
	// x=a and then x=b must clash through the shared variable.
	if _, err := Unify([]Term{x, x}, []Term{Const("a"), Const("b")}, nil); err == nil {
		t.Error("expected clash via shared variable")
	}
}

func TestUnifyIdempotent(t *testing.T) {
	x, y, z := Var("x"), Var("y"), Var("z")
	s, err := Unify([]Term{x, y, z}, []Term{y, z, Const("a")}, nil)
	if err != nil {
		t.Fatalf("unify: %v", err)
	}
	for k, v := range s {
		if s.Apply(v) != v {
			t.Errorf("not idempotent at %v↦%v", k, v)
		}
		if s.Resolve(k) != Const("a") {
			t.Errorf("chain not collapsed: %v resolves to %v", k, s.Resolve(k))
		}
	}
}

func TestUnifyPrefersNullOverVar(t *testing.T) {
	n, v := NullTerm("n1"), Var("x")
	s, err := Unify([]Term{n}, []Term{v}, nil)
	if err != nil {
		t.Fatalf("unify: %v", err)
	}
	if s.Resolve(v) != n {
		t.Errorf("variable should bind to null, got %v", s)
	}
}

func TestUnifyRespectsInit(t *testing.T) {
	x := Var("x")
	init := Subst{x: Const("a")}
	if _, err := Unify([]Term{x}, []Term{Const("b")}, init); err == nil {
		t.Error("expected clash with initial binding")
	}
	if init.Resolve(x) != Const("a") {
		t.Error("Unify mutated init")
	}
	s, err := Unify([]Term{x}, []Term{Const("a")}, init)
	if err != nil || s.Resolve(x) != Const("a") {
		t.Errorf("unify with compatible init: %v %v", s, err)
	}
}

func TestUnifyErrorMessage(t *testing.T) {
	_, err := Unify([]Term{Const("a")}, []Term{Const("b")}, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	ue, ok := err.(*UnifyError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ue.Error() == "" {
		t.Error("empty error message")
	}
}

func TestMatchTuple(t *testing.T) {
	s := NewSubst()
	pat := []Term{Var("x"), Var("x"), Const("a")}
	tgt := []Term{Const("c"), Const("c"), Const("a")}
	added, ok := MatchTuple(s, pat, tgt, nil)
	if !ok {
		t.Fatal("match should succeed")
	}
	if s.Apply(Var("x")) != Const("c") {
		t.Errorf("binding wrong: %v", s)
	}
	Unbind(s, added)
	if len(s) != 0 {
		t.Errorf("Unbind left residue: %v", s)
	}
}

func TestMatchTupleFailureRollsBack(t *testing.T) {
	s := NewSubst()
	pat := []Term{Var("x"), Var("x")}
	tgt := []Term{Const("c"), Const("d")}
	if _, ok := MatchTuple(s, pat, tgt, nil); ok {
		t.Fatal("match should fail")
	}
	if len(s) != 0 {
		t.Errorf("failed match left bindings: %v", s)
	}
	// Constant mismatch and length mismatch also roll back.
	if _, ok := MatchTuple(s, []Term{Const("a")}, []Term{Const("b")}, nil); ok {
		t.Error("constant mismatch should fail")
	}
	if _, ok := MatchTuple(s, []Term{Var("x")}, []Term{Const("a"), Const("b")}, nil); ok {
		t.Error("length mismatch should fail")
	}
}

func TestMatchTupleRespectsExistingBindings(t *testing.T) {
	s := Subst{Var("x"): Const("c")}
	if _, ok := MatchTuple(s, []Term{Var("x")}, []Term{Const("d")}, nil); ok {
		t.Error("match must respect pre-existing binding")
	}
	if added, ok := MatchTuple(s, []Term{Var("x")}, []Term{Const("c")}, nil); !ok || len(added) != 0 {
		t.Errorf("compatible match should succeed with no additions: %v %v", added, ok)
	}
}

// TestMatchTupleUndoStack: bindings are appended to the caller's undo
// stack, and a failed match unbinds only its own additions and hands
// the stack back at its entry length.
func TestMatchTupleUndoStack(t *testing.T) {
	s := NewSubst()
	undo, ok := MatchTuple(s, []Term{Var("x")}, []Term{Const("a")}, nil)
	if !ok || len(undo) != 1 {
		t.Fatalf("first match: %v %v", undo, ok)
	}
	mark := len(undo)
	undo, ok = MatchTuple(s, []Term{Var("y"), Var("x")}, []Term{Const("b"), Const("c")}, undo)
	if ok || len(undo) != mark {
		t.Fatalf("clashing match: ok=%v undo=%v, want failure at length %d", ok, undo, mark)
	}
	if len(s) != 1 || s[Var("x")] != Const("a") {
		t.Fatalf("failed match disturbed earlier bindings: %v", s)
	}
	undo, ok = MatchTuple(s, []Term{Var("y"), Var("z")}, []Term{Const("b"), Const("c")}, undo)
	if !ok || len(undo) != mark+2 {
		t.Fatalf("second match: %v %v", undo, ok)
	}
	Unbind(s, undo[mark:])
	if len(s) != 1 || s[Var("x")] != Const("a") {
		t.Fatalf("unbinding the second frame touched the first: %v", s)
	}
}

// keyOf is the canonical tuple key CompareTuples must agree with: the
// concatenated AppendKey encodings.
func keyOf(ts []Term) []byte {
	var b []byte
	for _, x := range ts {
		b = x.AppendKey(b)
	}
	return b
}

// TestCompareTuplesMatchesKeyOrder: CompareTuples is bytes.Compare on
// the canonical keys, on random tuples drawn from an alphabet made to
// hit every branch — all three kinds, empty names, names that are
// prefixes of each other, names containing NUL (including a NUL right
// after a shared prefix, the byte that ties with the shorter name's
// terminator), and the empty tuple.
func TestCompareTuplesMatchesKeyOrder(t *testing.T) {
	names := []string{"", "a", "ab", "abc", "a\x00", "a\x00b", "\x00", "\x00\x00", "b", "a\x01", "\x01"}
	kinds := []Kind{Constant, Null, Variable}
	r := rand.New(rand.NewSource(1))
	tuple := func() []Term {
		out := make([]Term, r.Intn(4))
		for i := range out {
			out[i] = Term{K: kinds[r.Intn(len(kinds))], Name: names[r.Intn(len(names))]}
		}
		return out
	}
	sign := func(c int) int { return cmp.Compare(c, 0) }
	for i := 0; i < 200000; i++ {
		a, b := tuple(), tuple()
		want := bytes.Compare(keyOf(a), keyOf(b))
		if got := sign(CompareTuples(a, b)); got != want {
			t.Fatalf("CompareTuples(%q, %q) = %d, key order says %d", a, b, got, want)
		}
	}
	// Every tuple, the empty one included, equals itself.
	for _, a := range [][]Term{nil, {}, {Const("")}, {Var("a\x00"), NullTerm("")}} {
		if CompareTuples(a, a) != 0 {
			t.Errorf("CompareTuples(%q, itself) != 0", a)
		}
	}
}

// Property: Unify produces a substitution under which both tuples are equal.
func TestUnifyProperty(t *testing.T) {
	mk := func(sel []uint8) []Term {
		names := []string{"a", "b", "c"}
		out := make([]Term, len(sel))
		for i, s := range sel {
			switch s % 3 {
			case 0:
				out[i] = Const(names[int(s/3)%3])
			case 1:
				out[i] = Var(names[int(s/3)%3])
			default:
				out[i] = NullTerm(names[int(s/3)%3])
			}
		}
		return out
	}
	f := func(selA, selB [4]uint8) bool {
		a, b := mk(selA[:]), mk(selB[:])
		s, err := Unify(a, b, nil)
		if err != nil {
			return true // failures are allowed; success must be correct
		}
		ra, rb := s.ResolveTuple(a), s.ResolveTuple(b)
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compose associates with Apply: (s∘t)(x) == t(s(x)) resolved.
func TestComposeProperty(t *testing.T) {
	f := func(i, j, k uint8) bool {
		x := Var("x")
		s := Subst{x: Var("y")}
		u := Subst{Var("y"): Const(string(rune('a' + i%4)))}
		c := s.Compose(u)
		return c.Resolve(x) == u.Apply(s.Apply(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
