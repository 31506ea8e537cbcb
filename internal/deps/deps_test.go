package deps

import (
	"strings"
	"testing"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func TestParseTGDBasics(t *testing.T) {
	s := MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	if len(s.TGDs) != 1 || len(s.EGDs) != 0 {
		t.Fatalf("set = %v", s)
	}
	tgd := s.TGDs[0]
	if len(tgd.Body) != 2 || len(tgd.Head) != 1 {
		t.Errorf("tgd shape = %s", tgd)
	}
	if !tgd.IsFull() {
		t.Error("no existential vars: should be full")
	}
	if got := tgd.FrontierVars(); len(got) != 2 {
		t.Errorf("frontier = %v", got)
	}
}

// TestAllocsParse guards the shared rule cursor on a tgd line: the
// bound is the count of the hand-written parser it replaced (measured
// at 30).
func TestAllocsParse(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const src = "Interest(x,z), Class(y,z) -> Owns(x,y)."
	if allocs := testing.AllocsPerRun(200, func() { _, _ = Parse(src) }); allocs > 39 {
		t.Errorf("Parse(%q) allocates %v, want at most 39", src, allocs)
	}
}

// TestAllocsParseDeps guards one validation per parsed dependency:
// the parser keeps the atoms the rule cursor built, validates each
// dependency as it builds it, and the final pass checks arities across
// dependencies only. Before that the parser cloned every atom and
// validated every dependency twice: 30 allocations for the one-line
// set and 70 for the three-line one (now 18 and 41).
func TestAllocsParseDeps(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		src   string
		bound float64
	}{
		{"Interest(x,z), Class(y,z) -> Owns(x,y).", 24},
		{"Interest(x,z), Class(y,z) -> Owns(x,y).\nT(x,y,z) -> S(x,w).\nR(x,y), R(x,z) -> y = z.", 54},
	} {
		if allocs := testing.AllocsPerRun(200, func() { _, _ = Parse(tc.src) }); allocs > tc.bound {
			t.Errorf("Parse(%q) allocates %v, want at most %v", tc.src, allocs, tc.bound)
		}
	}
}

func TestParseExistentialTGD(t *testing.T) {
	s := MustParse("T(x,y,z) -> S(x,w).")
	tgd := s.TGDs[0]
	ev := tgd.ExistentialVars()
	if len(ev) != 1 || ev[0] != term.Var("w") {
		t.Errorf("existential vars = %v", ev)
	}
	if tgd.IsFull() {
		t.Error("existential tgd reported full")
	}
}

func TestParseEGD(t *testing.T) {
	s := MustParse("R(x,y), R(x,z) -> y = z.")
	if len(s.EGDs) != 1 {
		t.Fatalf("set = %v", s)
	}
	e := s.EGDs[0]
	if e.X != term.Var("y") || e.Y != term.Var("z") {
		t.Errorf("equated = %s %s", e.X, e.Y)
	}
}

func TestParseMixedSetAndComments(t *testing.T) {
	s := MustParse(`
% a comment
R(x,y) -> S(y).

R(x,y), R(x,z) -> y = z.
`)
	if len(s.TGDs) != 1 || len(s.EGDs) != 1 {
		t.Fatalf("set = %v", s)
	}
	if s.PureTGDs() || s.PureEGDs() {
		t.Error("purity flags wrong on mixed set")
	}
	if s.Len() != 2 || s.Size() != 4 {
		t.Errorf("Len=%d Size=%d", s.Len(), s.Size())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R(x,y)",                 // no arrow
		"-> S(x)",                // empty body
		"R(x,y) -> ",             // empty head
		"R(x,y) -> y = y.",       // self equality
		"R(x,y) -> y = w.",       // w not in body
		"R(x,y) -> S(x) junk",    // trailing
		"R(x,y) -> S(x), y = z.", // mixed head
		"R(x,'a -> S(x).",        // unterminated constant
		"R(x), R(x,y) -> S(x).",  // arity conflict within a tgd
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	// Cross-dependency arity conflict.
	if _, err := Parse("R(x) -> S(x).\nR(x,y) -> S(x)."); err == nil {
		t.Error("cross-dependency arity conflict accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	in := "R(x,y), P(y,z) -> T(x,y,w).\nR(x,y), R(x,z) -> y = z."
	s := MustParse(in)
	back, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\nprinted:\n%s", err, s)
	}
	if back.String() != s.String() {
		t.Errorf("round trip changed:\n%s\nvs\n%s", s, back)
	}
}

func TestRenameApart(t *testing.T) {
	tgd := MustParse("R(x,y) -> S(y,z).").TGDs[0]
	r := tgd.RenameApart()
	for _, v := range append(r.BodyVars(), r.HeadVars()...) {
		if v == term.Var("x") || v == term.Var("y") || v == term.Var("z") {
			t.Errorf("renamed tgd still mentions %v", v)
		}
	}
	// Frontier structure preserved.
	if len(r.FrontierVars()) != 1 || len(r.ExistentialVars()) != 1 {
		t.Errorf("renamed tgd shape wrong: %s", r)
	}
	e := MustParse("R(x,y), R(x,z) -> y = z.").EGDs[0].RenameApart()
	if e.X == term.Var("y") {
		t.Error("egd rename did not change equated var")
	}
	if err := e.Validate(); err != nil {
		t.Errorf("renamed egd invalid: %v", err)
	}
}

func TestGuardedLinearInclusion(t *testing.T) {
	cases := []struct {
		dep                 string
		guarded, linear, id bool
	}{
		{"R(x,y) -> S(y,z).", true, true, true},
		{"R(x,x) -> S(x).", true, true, false},   // repeated body var
		{"R(x,y) -> S(y,y).", true, true, false}, // repeated head var
		{"R(x,y), P(y,z) -> T(x,y,z).", false, false, false},
		{"G(x,y,z), P(y,z) -> T(x).", true, false, false}, // G guards
		{"R(x,y) -> S(x), P(y).", true, true, false},      // two head atoms
	}
	for _, c := range cases {
		s := MustParse(c.dep)
		if got := s.IsGuarded(); got != c.guarded {
			t.Errorf("%s guarded = %v, want %v", c.dep, got, c.guarded)
		}
		if got := s.IsLinear(); got != c.linear {
			t.Errorf("%s linear = %v, want %v", c.dep, got, c.linear)
		}
		if got := s.IsInclusionDependencies(); got != c.id {
			t.Errorf("%s inclusion = %v, want %v", c.dep, got, c.id)
		}
	}
}

func TestBodyConnected(t *testing.T) {
	if !MustParse("R(x,y), P(y,z) -> T(x).").TGDs[0].IsBodyConnected() {
		t.Error("connected body reported disconnected")
	}
	if MustParse("R(x,y), P(u,v) -> T(x,u).").TGDs[0].IsBodyConnected() {
		t.Error("disconnected body reported connected")
	}
	if !MustParse("R(x,y) -> T(x).").TGDs[0].IsBodyConnected() {
		t.Error("single-atom body should be connected")
	}
}

func TestNonRecursive(t *testing.T) {
	if !MustParse("R(x,y) -> S(y).\nS(x) -> T(x,w).").IsNonRecursive() {
		t.Error("DAG set reported recursive")
	}
	if MustParse("R(x,y) -> S(y).\nS(x) -> R(x,w).").IsNonRecursive() {
		t.Error("cyclic set reported non-recursive")
	}
	if MustParse("R(x,y) -> R(y,x).").IsNonRecursive() {
		t.Error("self-loop reported non-recursive")
	}
	// Example 2's tgd is non-recursive.
	if !MustParse("P(x), P(y) -> R(x,y).").IsNonRecursive() {
		t.Error("Example 2 tgd should be non-recursive")
	}
}

func TestWeaklyAcyclic(t *testing.T) {
	// Full tgds are always weakly acyclic (no special edges).
	if !MustParse("R(x,y) -> S(y,x).\nS(x,y) -> R(x,y).").IsWeaklyAcyclic() {
		t.Error("full recursive set should be weakly acyclic")
	}
	// The classic non-weakly-acyclic example: R(x,y) -> R(y,z).
	if MustParse("R(x,y) -> R(y,z).").IsWeaklyAcyclic() {
		t.Error("null-propagating loop reported weakly acyclic")
	}
	// Existential into a different, non-recursive predicate: fine.
	if !MustParse("R(x,y) -> S(y,z).").IsWeaklyAcyclic() {
		t.Error("one-shot existential reported non-weakly-acyclic")
	}
	// Special edge into a cycle back to the source.
	if MustParse("R(x,y) -> S(y,z).\nS(x,y) -> R(x,y).").IsWeaklyAcyclic() {
		t.Error("special-edge cycle reported weakly acyclic")
	}
}

// TestFigure1Stickiness replays Figure 1 of the paper. The sticky set
// keeps the join variable y of the second tgd alive: y sits at T's
// second position, which the first tgd propagates into S. The variant
// whose first tgd exports x instead drops that position, the marking
// procedure marks y in the second tgd's body, and y occurs twice there
// — not sticky.
func TestFigure1Stickiness(t *testing.T) {
	sticky := MustParse(`
T(x,y,z) -> S(y,w).
R(x,y), P(y,z) -> T(x,y,w).
`)
	if !sticky.IsSticky() {
		t.Error("set propagating the join position should be sticky")
	}
	nonSticky := MustParse(`
T(x,y,z) -> S(x,w).
R(x,y), P(y,z) -> T(x,y,w).
`)
	if nonSticky.IsSticky() {
		t.Error("set dropping the join position should not be sticky")
	}
}

func TestStickinessMoreCases(t *testing.T) {
	// A join variable that sticks (propagates to the head) is fine.
	if !MustParse("R(x,y), P(y,z) -> T(y,w).").IsSticky() {
		t.Error("sticking join variable misclassified")
	}
	// A join variable dropped from the head violates stickiness.
	if MustParse("R(x,y), P(y,z) -> T(x,z).").IsSticky() {
		t.Error("dropped join variable should break stickiness")
	}
	// Example 2's tgd is sticky: x and y both appear once in the body.
	if !MustParse("P(x), P(y) -> R(x,y).").IsSticky() {
		t.Error("Example 2 tgd should be sticky")
	}
	// Linear tgds are always sticky.
	if !MustParse("R(x,y,x) -> S(x,w).").IsSticky() {
		t.Error("linear tgd with repeated var: still sticky (single body atom counts occurrences ≥2?)")
	}
}

func TestMarkingDetail(t *testing.T) {
	// In T(x,y,z) -> S(x,w): y and z are marked (absent from the head);
	// x is not (appears in the single head atom).
	s := MustParse("T(x,y,z) -> S(x,w).")
	m := ComputeMarking(s)
	if m.Marked[0][term.Var("x")] {
		t.Error("x should not be marked")
	}
	if !m.Marked[0][term.Var("y")] || !m.Marked[0][term.Var("z")] {
		t.Error("y,z should be marked")
	}
	// Propagation (Figure 1(b)): with the first tgd exporting x, its
	// body marks positions (T,1) and (T,2); the second tgd's head has y
	// at (T,1), so y becomes marked in the second tgd's body.
	s2 := MustParse("T(x,y,z) -> S(x,w).\nR(x,y), P(y,z) -> T(x,y,w).")
	m2 := ComputeMarking(s2)
	if !m2.Marked[1][term.Var("y")] {
		t.Error("propagation should mark y in the second tgd")
	}
	// In the sticky variant nothing marks y of the second tgd.
	s3 := MustParse("T(x,y,z) -> S(y,w).\nR(x,y), P(y,z) -> T(x,y,w).")
	m3 := ComputeMarking(s3)
	if m3.Marked[1][term.Var("y")] {
		t.Error("sticky variant should leave y unmarked")
	}
}

func TestClassifyEGDAsFD(t *testing.T) {
	cases := []struct {
		in    string
		isFD  bool
		key   bool
		unary bool
	}{
		{"R(x,y), R(x,z) -> y = z.", true, true, true},
		{"R(x,y,z), R(x,u,w) -> y = u.", true, false, true},
		{"R(x,y,z), R(x,y,w) -> z = w.", true, true, false},
		{"R(x,y), S(x,z) -> y = z.", false, false, false}, // different predicates
		{"R(x,y), R(y,z) -> x = z.", false, false, false}, // misaligned sharing
		{"R(x,x), R(x,z) -> x = z.", false, false, false}, // repeated var in atom
	}
	for _, c := range cases {
		s := MustParse(c.in)
		fd, ok := ClassifyEGDAsFD(s.EGDs[0])
		if ok != c.isFD {
			t.Errorf("%s: isFD = %v, want %v", c.in, ok, c.isFD)
			continue
		}
		if !ok {
			continue
		}
		if fd.IsKey() != c.key {
			t.Errorf("%s: IsKey = %v, want %v", c.in, fd.IsKey(), c.key)
		}
		if fd.IsUnary() != c.unary {
			t.Errorf("%s: IsUnary = %v, want %v", c.in, fd.IsUnary(), c.unary)
		}
	}
}

func TestK2(t *testing.T) {
	if !MustParse("R(x,y), R(x,z) -> y = z.").IsK2() {
		t.Error("binary key should be K2")
	}
	if MustParse("R(x,y,z), R(x,y,w) -> z = w.").IsK2() {
		t.Error("ternary key should not be K2")
	}
}

func TestFDConversionRoundTrip(t *testing.T) {
	fd, err := NewFD("R", 3, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := fd.AsEGD()
	got, ok := ClassifyEGDAsFD(e)
	if !ok {
		t.Fatalf("AsEGD output not recognized as FD: %s", e)
	}
	if got.Pred != "R" || got.Arity != 3 || len(got.From) != 1 || got.From[0] != 0 || got.To != 2 {
		t.Errorf("round trip FD = %+v", got)
	}
	if fd.String() != "R: {1} -> 3" {
		t.Errorf("FD String = %q", fd.String())
	}
}

func TestNewFDValidation(t *testing.T) {
	bad := [][4]any{
		{"", 2, []int{0}, 1},
		{"R", 0, []int{}, 0},
		{"R", 2, []int{5}, 1},
		{"R", 2, []int{0, 0}, 1},
		{"R", 2, []int{0}, 0}, // target in determinant
		{"R", 2, []int{0}, 9},
		{"R", 2, []int{}, 1},
	}
	for _, b := range bad {
		if _, err := NewFD(b[0].(string), b[1].(int), b[2].([]int), b[3].(int)); err == nil {
			t.Errorf("NewFD(%v) accepted", b)
		}
	}
}

func TestClasses(t *testing.T) {
	s := MustParse("R(x,y) -> S(y,z).")
	got := s.Classes()
	want := map[Class]bool{ClassGuarded: true, ClassLinear: true, ClassInclusion: true,
		ClassNonRecursive: true, ClassSticky: true, ClassWeaklyAcyc: true,
		ClassWeaklyGuarded: true, ClassWeaklySticky: true}
	if len(got) != len(want) {
		t.Errorf("Classes = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected class %s", c)
		}
	}
	keys := MustParse("R(x,y), R(x,z) -> y = z.")
	found := false
	for _, c := range keys.Classes() {
		if c == ClassK2 {
			found = true
		}
	}
	if !found {
		t.Errorf("Classes(keys) = %v, missing K2", keys.Classes())
	}
}

func TestSetSchemaAndConstructors(t *testing.T) {
	tgd := MustTGD(
		[]instance.Atom{instance.NewAtom("R", term.Var("x"), term.Var("y"))},
		[]instance.Atom{instance.NewAtom("S", term.Var("y"))},
	)
	s := TGDSet(tgd)
	sch := s.Schema()
	if a, ok := sch.Arity("R"); !ok || a != 2 {
		t.Error("schema missing R/2")
	}
	e := MustEGD([]instance.Atom{
		instance.NewAtom("R", term.Var("x"), term.Var("y")),
		instance.NewAtom("R", term.Var("x"), term.Var("z")),
	}, term.Var("y"), term.Var("z"))
	s2 := EGDSet(e)
	if !s2.PureEGDs() {
		t.Error("EGDSet not pure")
	}
	if !strings.Contains(e.String(), "y = z") {
		t.Errorf("EGD String = %q", e.String())
	}
}

func TestMustTGDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustTGD(nil, nil)
}

// Constants in the namespace freezing uses would thaw into variables
// inside the rewriting and the chase, so dependencies may not mention
// them: the parser and both Validate methods refuse them.
func TestRejectsFrozenConstants(t *testing.T) {
	for _, src := range []string{
		"E(x,'\x01c:w') -> F(x).",
		"E(x,y) -> F(x,'\x01c:y').",
		"E(x,y), E(x,'\x01c:z'), E(x,z) -> y = z.",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "reserved frozen namespace") {
			t.Errorf("Parse(%q) err = %v, want a reserved-namespace error", src, err)
		}
	}
	frozen := term.Const(term.FrozenPrefix + "w")
	if _, err := NewTGD(
		[]instance.Atom{instance.NewAtom("E", term.Var("x"), frozen)},
		[]instance.Atom{instance.NewAtom("F", term.Var("x"))},
	); err == nil {
		t.Error("NewTGD accepted a frozen constant")
	}
	if _, err := NewEGD([]instance.Atom{
		instance.NewAtom("E", term.Var("x"), term.Var("y")),
		instance.NewAtom("E", term.Var("x"), term.Var("z")),
		instance.NewAtom("F", frozen),
	}, term.Var("y"), term.Var("z")); err == nil {
		t.Error("NewEGD accepted a frozen constant")
	}
}
