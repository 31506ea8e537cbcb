package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

var (
	x = term.Var("x")
	y = term.Var("y")
	z = term.Var("z")
)

func TestNewValidates(t *testing.T) {
	good, err := New([]term.Term{x}, []instance.Atom{instance.NewAtom("R", x, y)})
	if err != nil || good == nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name  string
		free  []term.Term
		atoms []instance.Atom
	}{
		{"no atoms", nil, nil},
		{"null in body", nil, []instance.Atom{instance.NewAtom("R", term.NullTerm("n"))}},
		{"free constant", []term.Term{term.Const("a")}, []instance.Atom{instance.NewAtom("R", x)}},
		{"free not in body", []term.Term{y}, []instance.Atom{instance.NewAtom("R", x)}},
		{"duplicate free", []term.Term{x, x}, []instance.Atom{instance.NewAtom("R", x)}},
		{"arity conflict", nil, []instance.Atom{instance.NewAtom("R", x), instance.NewAtom("R", x, y)}},
	}
	for _, c := range cases {
		if _, err := New(c.free, c.atoms); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(nil, nil)
}

func TestBasicAccessors(t *testing.T) {
	q := MustParse("q(x) :- R(x,y), S(y,'a'), R(x,x).")
	if q.IsBoolean() {
		t.Error("IsBoolean wrong")
	}
	if q.Size() != 3 {
		t.Errorf("Size = %d", q.Size())
	}
	if vs := q.Vars(); len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Errorf("Vars = %v", vs)
	}
	if ev := q.ExistentialVars(); len(ev) != 1 || ev[0] != y {
		t.Errorf("ExistentialVars = %v", ev)
	}
	if cs := q.Constants(); len(cs) != 1 || cs[0] != term.Const("a") {
		t.Errorf("Constants = %v", cs)
	}
	sch := q.Schema()
	if a, ok := sch.Arity("R"); !ok || a != 2 {
		t.Error("Schema missing R/2")
	}
}

func TestCloneAndApplySubst(t *testing.T) {
	q := MustParse("q(x) :- R(x,y).")
	c := q.Clone()
	c.Atoms[0].Args[0] = z
	if q.Atoms[0].Args[0] != x {
		t.Error("Clone shares atom storage")
	}
	// One slab holds a copy's free variables and arguments: growing one
	// of them leaves its neighbours in the slab alone.
	d := MustParse("q(x) :- R(x,y), S(y,z).").Clone()
	d.Free = append(d.Free, z)
	d.Atoms[0].Args = append(d.Atoms[0].Args, z)
	if d.Atoms[0].Args[0] != x || d.Atoms[1].Args[0] != y {
		t.Errorf("growing a clone's free variables or arguments overwrote its neighbours: %s", d)
	}
	s := term.Subst{y: term.Const("b")}
	r := q.ApplySubst(s)
	if r.Atoms[0].Args[1] != term.Const("b") {
		t.Errorf("ApplySubst = %s", r)
	}
	if q.Atoms[0].Args[1] != y {
		t.Error("ApplySubst mutated receiver")
	}
}

func TestRenameApart(t *testing.T) {
	q := MustParse("q(x) :- R(x,y).")
	r, s := q.RenameApart()
	if len(s) != 2 {
		t.Errorf("renaming = %v", s)
	}
	for _, v := range r.Vars() {
		if v == x || v == y {
			t.Errorf("renamed query still mentions %v", v)
		}
	}
	// Shape preserved: the join structure is the same.
	if r.Atoms[0].Args[0] != s[x] || r.Atoms[0].Args[1] != s[y] {
		t.Errorf("renaming not applied consistently: %s", r)
	}
}

func TestFreezeAndThaw(t *testing.T) {
	q := MustParse("q(x) :- R(x,y), S(y,'a').")
	db, frozen := q.Freeze()
	if db.Len() != 2 {
		t.Errorf("frozen db = %s", db)
	}
	if len(frozen) != 1 || !IsFrozenConst(frozen[0]) {
		t.Errorf("frozen tuple = %v", frozen)
	}
	if Thaw(frozen[0]) != x {
		t.Errorf("Thaw = %v", Thaw(frozen[0]))
	}
	if IsFrozenConst(term.Const("a")) {
		t.Error("user constant misreported as frozen")
	}
	// The user constant 'a' survives freezing untouched.
	found := false
	for _, a := range db.Atoms() {
		for _, tm := range a.Args {
			if tm == term.Const("a") {
				found = true
			}
		}
	}
	if !found {
		t.Error("constant lost during freeze")
	}
}

func TestThawPanicsOnNonFrozen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Thaw(term.Const("a"))
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"q(x,y) :- R(x,z), S(z,y), T('a',x)",
		"q() :- R(x,x)",
		"p(x) :- Edge(x,y), Edge(y,x), Label(x,'red')",
	}
	for _, in := range inputs {
		q := MustParse(in + ".")
		back, err := Parse(q.String())
		if err != nil {
			t.Errorf("%s: re-parse failed: %v\nprinted: %s", in, err, q.String())
			continue
		}
		if back.String() != q.String() {
			t.Errorf("round trip changed: %q vs %q", q.String(), back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(x)",
		"q(x) :-",
		"q(x) :- R(x",
		"q(x) :- R(x) extra",
		"q('a') :- R(x)",
		"q(x) :- R('unterminated)",
		"q(zz) :- R(x)", // free var not in body
		"123 :- R(x)",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestAllocsParse guards the shared rule cursor: one argument scratch
// per parse and escape-free constants sliced from the input. The
// bounds are the counts of the two hand-written parsers it replaced
// (measured at 13, 13 and 16).
func TestAllocsParse(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		src string
		max float64
	}{
		{"q(x,y) :- R(x,z), S(z,y), T('a',x).", 18},
		{"q(x) :- E(x,y), E(y,'c5'), P(y).", 16},
		{"q :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7).", 26},
	} {
		allocs := testing.AllocsPerRun(200, func() { _, _ = Parse(tc.src) })
		if allocs > tc.max {
			t.Errorf("Parse(%q) allocates %v, want at most %v", tc.src, allocs, tc.max)
		}
	}
}

// freezeRef is the previous Freeze, kept as the reference: it builds a
// substitution from Vars and resolves every term through it.
func freezeRef(q *CQ) (*instance.Instance, []term.Term) {
	s := term.NewSubst()
	for _, v := range q.Vars() {
		s[v] = FrozenConst(v)
	}
	db := instance.New()
	for _, a := range q.Atoms {
		if err := db.Add(a.Apply(s)); err != nil {
			panic(err)
		}
	}
	return db, s.ResolveTuple(q.Free)
}

// TestFreezeMatchesReference: the map-free Freeze builds the same
// instance, atom for atom in the same order, and the same frozen tuple
// as the substitution-based reference, on random queries with
// constants, nulls, repeated variables and repeated or bodiless free
// variables.
func TestFreezeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20_000; trial++ {
		q := randomKeyQuery(r)
		db, tuple := q.Freeze()
		wantDB, wantTuple := freezeRef(q)
		if got, want := fmt.Sprint(db.Atoms()), fmt.Sprint(wantDB.Atoms()); got != want {
			t.Fatalf("trial %d: Freeze(%s) atoms\n got %s\nwant %s", trial, q, got, want)
		}
		if !slices.Equal(tuple, wantTuple) {
			t.Fatalf("trial %d: Freeze(%s) tuple %v, want %v", trial, q, tuple, wantTuple)
		}
	}
}

// TestFreezerMatchesReference: one Freezer, reused with one instance
// over TestFreezeMatchesReference's random queries, fills the instance
// and returns the tuple the reference does at every call, though its
// constant memo and the instance's tables carry over between them.
func TestFreezerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var f Freezer
	db := instance.New()
	for trial := 0; trial < 20_000; trial++ {
		q := randomKeyQuery(r)
		tuple := f.Freeze(q, db)
		wantDB, wantTuple := freezeRef(q)
		if got, want := fmt.Sprint(db.Atoms()), fmt.Sprint(wantDB.Atoms()); got != want {
			t.Fatalf("trial %d: Freeze(%s) atoms\n got %s\nwant %s", trial, q, got, want)
		}
		if !slices.Equal(tuple, wantTuple) {
			t.Fatalf("trial %d: Freeze(%s) tuple %v, want %v", trial, q, tuple, wantTuple)
		}
	}
}

// TestAllocsFreeze guards the frozen instance's sizing: Freeze knows
// its atom count and widest arity, so the instance it fills grows no
// slot, chain or position table. Grown from empty, the three queries
// took 31, 47 and 42 allocations. Freeze builds no substitution map
// and no Vars slice: with them the three took 26, 39 and 37.
func TestAllocsFreeze(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		src string
		max float64
	}{
		{"q :- E(x,y), E(y,z), E(z,x).", 22},
		{"q(x1) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7).", 34},
		{"q(x) :- R(x,y,z), S(y,z,w,v), R(w,v,x), T(x,y).", 31},
	} {
		q := MustParse(tc.src)
		allocs := testing.AllocsPerRun(200, func() { _, _ = q.Freeze() })
		t.Logf("Freeze(%q): %v allocs", tc.src, allocs)
		if allocs > tc.max {
			t.Errorf("Freeze(%q) allocates %v, want at most %v", tc.src, allocs, tc.max)
		}
	}
}

// TestAllocsFreezer guards the reused Freezer: with its constants
// memoized and the instance reset rather than rebuilt, freezing a query
// allocates only the stored atoms' cells, one per atom of arity at most
// two, where a fresh Freeze of this query takes 20 allocations.
func TestAllocsFreezer(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	q := MustParse("q(x,y) :- R(x,z), S(z,y), T('a',x).")
	var f Freezer
	db := instance.New()
	f.Freeze(q, db)
	allocs := testing.AllocsPerRun(200, func() { f.Freeze(q, db) })
	t.Logf("reused Freezer: %v allocs", allocs)
	if allocs > 3 {
		t.Errorf("a reused Freezer allocates %v freezing %s, want at most 3 (its cells)", allocs, q)
	}
}

func TestParseBooleanAndNumbers(t *testing.T) {
	q := MustParse("q :- R(x,42).")
	if !q.IsBoolean() {
		t.Error("bare head should be Boolean")
	}
	if q.Atoms[0].Args[1] != term.Const("42") {
		t.Errorf("number not a constant: %v", q.Atoms[0])
	}
}

func TestParseUCQ(t *testing.T) {
	u, err := ParseUCQ("% comment\nq(x) :- R(x,y), P(y).\n\nq(x) :- S(x).\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 2 || u.Height() != 2 {
		t.Errorf("UCQ = %v height=%d", u, u.Height())
	}
	if _, err := ParseUCQ("q(x) :- R(x).\nq(x,y) :- R(x,y)."); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := ParseUCQ("q(x) :- R(x\n"); err == nil {
		t.Error("bad line accepted")
	}
	if _, err := ParseUCQ(""); err == nil {
		t.Error("empty UCQ accepted")
	}
	if !strings.Contains(u.String(), ":-") {
		t.Error("UCQ String looks wrong")
	}
}

func TestNewUCQValidation(t *testing.T) {
	q1 := MustParse("q(x) :- R(x).")
	q2 := MustParse("q(x,y) :- R(x), R(y).")
	if _, err := NewUCQ(q1, q2); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewUCQ(); err == nil {
		t.Error("empty UCQ accepted")
	}
}
