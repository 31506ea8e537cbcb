package hom

import (
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func db(t *testing.T, atoms ...instance.Atom) *instance.Instance {
	t.Helper()
	ins, err := instance.FromAtoms(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func cT(n string) term.Term { return term.Const(n) }

func TestFindSimple(t *testing.T) {
	target := db(t,
		instance.NewAtom("R", cT("a"), cT("b")),
		instance.NewAtom("R", cT("b"), cT("c")),
	)
	pattern := []instance.Atom{
		instance.NewAtom("R", term.Var("x"), term.Var("y")),
		instance.NewAtom("R", term.Var("y"), term.Var("z")),
	}
	h, ok := Find(pattern, target, nil)
	if !ok {
		t.Fatal("no homomorphism found")
	}
	if h.Resolve(term.Var("x")) != cT("a") || h.Resolve(term.Var("z")) != cT("c") {
		t.Errorf("hom = %v", h)
	}
}

func TestFindRespectsConstantsAndInit(t *testing.T) {
	target := db(t, instance.NewAtom("R", cT("a"), cT("b")))
	if Exists([]instance.Atom{instance.NewAtom("R", cT("b"), term.Var("y"))}, target, nil) {
		t.Error("constant mismatch matched")
	}
	init := term.Subst{term.Var("x"): cT("b")}
	if Exists([]instance.Atom{instance.NewAtom("R", term.Var("x"), term.Var("y"))}, target, init) {
		t.Error("init binding ignored")
	}
	if len(init) != 1 {
		t.Error("init mutated")
	}
}

func TestFindNoHom(t *testing.T) {
	target := db(t, instance.NewAtom("R", cT("a"), cT("b")))
	pattern := []instance.Atom{
		instance.NewAtom("R", term.Var("x"), term.Var("x")), // needs a loop
	}
	if Exists(pattern, target, nil) {
		t.Error("found hom into loop-free graph")
	}
}

func TestEnumerateCountsAndEarlyStop(t *testing.T) {
	target := db(t,
		instance.NewAtom("E", cT("a"), cT("b")),
		instance.NewAtom("E", cT("b"), cT("a")),
	)
	pattern := []instance.Atom{instance.NewAtom("E", term.Var("x"), term.Var("y"))}
	count := 0
	Enumerate(pattern, target, nil, func(term.Subst) bool { count++; return true })
	if count != 2 {
		t.Errorf("enumerated %d homs, want 2", count)
	}
	count = 0
	Enumerate(pattern, target, nil, func(term.Subst) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop enumerated %d", count)
	}
}

func TestEvaluate(t *testing.T) {
	// Paths of length 2 in a small graph.
	target := db(t,
		instance.NewAtom("E", cT("a"), cT("b")),
		instance.NewAtom("E", cT("b"), cT("c")),
		instance.NewAtom("E", cT("b"), cT("d")),
	)
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	got := Evaluate(q, target)
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
	want := map[string]bool{"a,c": true, "a,d": true}
	for _, tup := range got {
		k := tup[0].Name + "," + tup[1].Name
		if !want[k] {
			t.Errorf("unexpected answer %v", tup)
		}
	}
}

func TestEvaluateDeduplicates(t *testing.T) {
	target := db(t,
		instance.NewAtom("E", cT("a"), cT("b")),
		instance.NewAtom("E", cT("a"), cT("c")),
	)
	// Both homs project to the same x.
	q := cq.MustParse("q(x) :- E(x,y).")
	if got := Evaluate(q, target); len(got) != 1 {
		t.Errorf("answers = %v", got)
	}
}

func TestEvaluateBoolAndHasTuple(t *testing.T) {
	target := db(t, instance.NewAtom("E", cT("a"), cT("b")))
	q := cq.MustParse("q(x,y) :- E(x,y).")
	if !EvaluateBool(q, target) {
		t.Error("EvaluateBool false")
	}
	if !HasTuple(q, target, []term.Term{cT("a"), cT("b")}) {
		t.Error("HasTuple missed (a,b)")
	}
	if HasTuple(q, target, []term.Term{cT("b"), cT("a")}) {
		t.Error("HasTuple accepted (b,a)")
	}
	if HasTuple(q, target, []term.Term{cT("a")}) {
		t.Error("HasTuple accepted wrong arity")
	}
	// Repeated free variable positions must agree.
	q2 := cq.MustParse("q(x,x2) :- E(x,x2).")
	if !HasTuple(q2, target, []term.Term{cT("a"), cT("b")}) {
		t.Error("two-var tuple rejected")
	}
}

func TestContainedEquivalent(t *testing.T) {
	pathThree := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	pathTwo := cq.MustParse("q(x,y) :- E(x,y).")
	// A 2-path contains... neither direction here: check a classical pair.
	// q ⊆ q' where q' is less constrained.
	q := cq.MustParse("q(x) :- E(x,y), E(y,z).")
	qp := cq.MustParse("q(x) :- E(x,y).")
	if !Contained(q, qp) {
		t.Error("2-path not contained in 1-path")
	}
	if Contained(qp, q) {
		t.Error("1-path contained in 2-path")
	}
	if Contained(pathThree, pathTwo) {
		t.Error("distinguished-variable containment wrong")
	}
	// Equivalence up to renaming.
	a := cq.MustParse("q(x) :- R(x,y), R(y,z).")
	b := cq.MustParse("q(u) :- R(u,v), R(v,w).")
	if !Equivalent(a, b) {
		t.Error("renamed queries not equivalent")
	}
	// Arity mismatch.
	if Contained(pathTwo, cq.MustParse("q(x) :- E(x,y).")) {
		t.Error("arity mismatch accepted")
	}
}

func TestContainedWithRedundantAtom(t *testing.T) {
	q := cq.MustParse("q(x) :- E(x,y), E(x,z).")
	qp := cq.MustParse("q(x) :- E(x,y).")
	if !Equivalent(q, qp) {
		t.Error("redundant atom should not affect equivalence")
	}
}

func TestCoreFoldsRedundancy(t *testing.T) {
	cases := []struct {
		in       string
		wantSize int
	}{
		{"q(x) :- E(x,y), E(x,z)", 1},
		{"q :- E(x,y), E(y,z), E(z,w)", 1}, // Boolean path folds onto an edge? No: needs E-loop... 3-path core
		{"q :- E(x,x)", 1},
		{"q :- E(x,y), E(u,v)", 1},         // two disjoint edges fold together
		{"q(x,y) :- E(x,y), E(x,z)", 1},    // z-branch folds onto y
		{"q :- R(x,y), S(y,z), R(x,w)", 2}, // R(x,w) folds onto R(x,y)
	}
	for _, tc := range cases {
		q := cq.MustParse(tc.in + ".")
		core := Core(q)
		if tc.in == "q :- E(x,y), E(y,z), E(z,w)" {
			// A Boolean 3-path has no loop to fold into; its core is the
			// path itself (length 3), because any endomorphism must be
			// injective on the path? Actually x→y→z→w can fold: map the
			// whole path onto its middle edge only if E(y,y) existed.
			// The core of a directed 3-path is the 3-path.
			tc.wantSize = 3
		}
		if core.Size() != tc.wantSize {
			t.Errorf("Core(%s) = %s (size %d), want size %d", tc.in, core, core.Size(), tc.wantSize)
		}
		if !Equivalent(q, core) {
			t.Errorf("Core(%s) = %s not equivalent to input", tc.in, core)
		}
	}
}

func TestCoreKeepsFreeVariables(t *testing.T) {
	// With x,z free the two atoms cannot fold onto each other.
	q := cq.MustParse("q(x,z) :- E(x,y), E(z,y).")
	core := Core(q)
	if core.Size() != 2 {
		t.Errorf("core dropped atoms needed by free vars: %s", core)
	}
	if !IsCore(q) {
		t.Error("IsCore wrong")
	}
	// The same shape with only x free folds to a single atom.
	q2 := cq.MustParse("q(x) :- E(x,y), E(x,z).")
	if got := Core(q2); got.Size() != 1 {
		t.Errorf("existential branch should fold: %s", got)
	}
	if IsCore(cq.MustParse("q :- E(x,y), E(u,v).")) {
		t.Error("non-core reported as core")
	}
}

func TestCoreTriangleIsCore(t *testing.T) {
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	if got := Core(tri); got.Size() != 3 {
		t.Errorf("triangle core = %s", got)
	}
}

func TestCoreOfExample1(t *testing.T) {
	// Example 1 of the paper: the query is a core but not acyclic.
	q := cq.MustParse("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
	if got := Core(q); got.Size() != 3 {
		t.Errorf("Example 1 query should be its own core, got %s", got)
	}
}

// TestCoreMapOrderDeterministic: the query has three equal retractions
// onto a two-atom path, and which one Core returns follows the order in
// which the per-victim clones of the frozen query hand out candidates.
// Instance.Clone keeps index order, so every call returns the same core.
func TestCoreMapOrderDeterministic(t *testing.T) {
	q := cq.MustParse("q :- E(x,y), E(y,z), E(x,u), E(u,v), E(x,a), E(a,b).")
	want := Core(q).String()
	for i := 0; i < 200; i++ {
		if got := Core(q).String(); got != want {
			t.Fatalf("call %d: core %s, first call %s", i, got, want)
		}
	}
}
