package chase

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func TestExample1Chase(t *testing.T) {
	// Chasing the acyclic reformulation q' of Example 1 with the tgd
	// regenerates the Owns atom, witnessing q ≡Σ q'.
	set := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	q := cq.MustParse("q(x,y) :- Interest(x,z), Class(y,z).")
	res, frozen, err := Query(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("full-tgd chase should complete")
	}
	want := instance.NewAtom("Owns", frozen[0], frozen[1])
	if !res.Instance.Has(want) {
		t.Errorf("chase missing %s: %s", want, res.Instance)
	}
	if res.Instance.Len() != 3 {
		t.Errorf("chase size = %d", res.Instance.Len())
	}
}

func TestRestrictedChaseStopsWhenSatisfied(t *testing.T) {
	// R(x,y) → ∃z R(y,z) on a database containing a loop: restricted
	// chase sees the head satisfied and stops immediately.
	set := deps.MustParse("R(x,y) -> R(y,z).")
	db := instance.MustFromAtoms(instance.NewAtom("R", term.Const("a"), term.Const("a")))
	res, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Steps != 0 || res.Instance.Len() != 1 {
		t.Errorf("restricted chase did extra work: steps=%d len=%d complete=%v",
			res.Steps, res.Instance.Len(), res.Complete)
	}
}

func TestExistentialCreatesFreshNulls(t *testing.T) {
	set := deps.MustParse("P(x) -> R(x,z).")
	db := instance.MustFromAtoms(
		instance.NewAtom("P", term.Const("a")),
		instance.NewAtom("P", term.Const("b")),
	)
	res, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rAtoms := res.Instance.ByPred("R")
	if len(rAtoms) != 2 {
		t.Fatalf("R atoms = %v", rAtoms)
	}
	if !rAtoms[0].Args[1].IsNull() || !rAtoms[1].Args[1].IsNull() {
		t.Error("existential positions should hold nulls")
	}
	if rAtoms[0].Args[1] == rAtoms[1].Args[1] {
		t.Error("distinct triggers must get distinct nulls")
	}
}

func TestInfiniteChaseTruncatedByDepth(t *testing.T) {
	set := deps.MustParse("R(x,y) -> R(y,z).")
	db := instance.MustFromAtoms(instance.NewAtom("R", term.Const("a"), term.Const("b")))
	res, err := Run(db, set, Options{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("truncated chase reported complete")
	}
	if res.Instance.Len() != 6 { // initial + 5 levels
		t.Errorf("chase size = %d, want 6", res.Instance.Len())
	}
	for _, d := range res.Depth {
		if d > 5 {
			t.Errorf("depth %d exceeds budget", d)
		}
	}
}

func TestInfiniteChaseTruncatedBySteps(t *testing.T) {
	set := deps.MustParse("R(x,y) -> R(y,z).")
	db := instance.MustFromAtoms(instance.NewAtom("R", term.Const("a"), term.Const("b")))
	res, err := Run(db, set, Options{MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Steps > 10 {
		t.Errorf("steps=%d complete=%v", res.Steps, res.Complete)
	}
}

func TestObliviousFiresPerTrigger(t *testing.T) {
	set := deps.MustParse("R(x,y) -> S(x,w).")
	db := instance.MustFromAtoms(
		instance.NewAtom("R", term.Const("a"), term.Const("b")),
		instance.NewAtom("R", term.Const("a"), term.Const("c")),
	)
	restricted, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restricted.Instance.ByPred("S")); got != 1 {
		t.Errorf("restricted chase S atoms = %d, want 1", got)
	}
	oblivious, err := Run(db, set, Options{Oblivious: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(oblivious.Instance.ByPred("S")); got != 2 {
		t.Errorf("oblivious chase S atoms = %d, want 2", got)
	}
	if !oblivious.Complete {
		t.Error("oblivious chase of non-recursive set should complete")
	}
}

// TestExample2CliqueBlowup replays Example 2: chasing n unary facts
// with P(x),P(y) → R(x,y) yields all n² pairs, destroying acyclicity.
func TestExample2CliqueBlowup(t *testing.T) {
	set := deps.MustParse("P(x), P(y) -> R(x,y).")
	const n = 6
	db := instance.New()
	for i := 0; i < n; i++ {
		db.Add(instance.NewAtom("P", term.Const(fmt.Sprintf("a%d", i))))
	}
	res, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Instance.ByPred("R")); got != n*n {
		t.Errorf("R atoms = %d, want %d", got, n*n)
	}
	// The frozen version of the paper's query: acyclic before, cyclic after.
	q := cq.MustParse("q :- P(x1), P(x2), P(x3).")
	if !hypergraph.IsAcyclic(q.Atoms) {
		t.Error("query should be acyclic")
	}
	resQ, _, err := Query(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hypergraph.IsAcyclic(cq.ThawAtoms(resQ.Instance.AtomsUnordered())) {
		t.Error("chased instance should be cyclic (clique)")
	}
}

// TestExample4KeyChase replays Example 4: applying the key
// R(x,y),R(x,z) → y=z to the acyclic chain query produces a cyclic
// query.
func TestExample4KeyChase(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q :- R(x,y), S(x,y,z), S(x,z,w), S(x,w,v), R(x,v).")
	if !hypergraph.IsAcyclic(q.Atoms) {
		t.Fatal("Example 4 query should be acyclic")
	}
	res, _, err := Query(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// y and v are identified, collapsing the two R atoms.
	if got := len(res.Instance.ByPred("R")); got != 1 {
		t.Errorf("R atoms after key chase = %d, want 1", got)
	}
	if hypergraph.IsAcyclic(cq.ThawAtoms(res.Instance.AtomsUnordered())) {
		t.Errorf("chased query should be cyclic: %s", res.Instance)
	}
	if !res.Complete {
		t.Error("egd chase should complete")
	}
}

func TestEGDFailureOnRigidConstants(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	db := instance.MustFromAtoms(
		instance.NewAtom("R", term.Const("k"), term.Const("a")),
		instance.NewAtom("R", term.Const("k"), term.Const("b")),
	)
	_, err := Run(db, set, Options{})
	if !errors.Is(err, ErrFailed) {
		t.Errorf("expected ErrFailed, got %v", err)
	}
}

func TestEGDIdentifiesNullsWithConstants(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	n := term.FreshNull()
	db := instance.MustFromAtoms(
		instance.NewAtom("R", term.Const("k"), term.Const("a")),
		instance.NewAtom("R", term.Const("k"), n),
	)
	res, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance.Len() != 1 {
		t.Errorf("atoms after merge = %s", res.Instance)
	}
	if got := res.Merges.Resolve(n); got != term.Const("a") {
		t.Errorf("merge of %s = %s, want a", n, got)
	}
}

func TestQueryChaseWithEGDsMergesFrozenHead(t *testing.T) {
	// The key forces y and z to coincide; the frozen head must follow.
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q(y,z) :- R(x,y), R(x,z).")
	res, frozen, err := Query(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frozen[0] != frozen[1] {
		t.Errorf("frozen head not merged: %v", frozen)
	}
	if res.Instance.Len() != 1 {
		t.Errorf("instance = %s", res.Instance)
	}
}

func TestTGDAndEGDInterleave(t *testing.T) {
	// The tgd creates a null which the key then merges with a constant.
	set := deps.MustParse("P(x) -> R('k',x).\nR(x,y), R(x,z) -> y = z.")
	db := instance.MustFromAtoms(
		instance.NewAtom("P", term.Const("a")),
		instance.NewAtom("P", term.Const("b")),
	)
	_, err := Run(db, set, Options{})
	if !errors.Is(err, ErrFailed) {
		t.Errorf("expected failure merging a and b, got %v", err)
	}
}

func TestSatisfies(t *testing.T) {
	set := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	good := instance.MustFromAtoms(
		instance.NewAtom("Interest", term.Const("c"), term.Const("s")),
		instance.NewAtom("Class", term.Const("r"), term.Const("s")),
		instance.NewAtom("Owns", term.Const("c"), term.Const("r")),
	)
	if !Satisfies(good, set) {
		t.Error("satisfying db rejected")
	}
	bad := instance.MustFromAtoms(
		instance.NewAtom("Interest", term.Const("c"), term.Const("s")),
		instance.NewAtom("Class", term.Const("r"), term.Const("s")),
	)
	if Satisfies(bad, set) {
		t.Error("violating db accepted")
	}
	keys := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	if Satisfies(instance.MustFromAtoms(
		instance.NewAtom("R", term.Const("k"), term.Const("a")),
		instance.NewAtom("R", term.Const("k"), term.Const("b")),
	), keys) {
		t.Error("key violation accepted")
	}
}

func TestChaseResultSatisfiesSet(t *testing.T) {
	sets := []string{
		"Interest(x,z), Class(y,z) -> Owns(x,y).",
		"P(x) -> R(x,z).\nR(x,y) -> S(y).",
		"R(x,y), R(x,z) -> y = z.",
	}
	for _, src := range sets {
		set := deps.MustParse(src)
		db := instance.MustFromAtoms(
			instance.NewAtom("Interest", term.Const("c"), term.Const("s")),
			instance.NewAtom("Class", term.Const("r"), term.Const("s")),
			instance.NewAtom("P", term.Const("a")),
			instance.NewAtom("R", term.Const("u"), term.Const("v")),
		)
		res, err := Run(db, set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !res.Complete {
			t.Errorf("%s: chase did not complete", src)
		}
		if !Satisfies(res.Instance, set) {
			t.Errorf("%s: chase result violates the set:\n%s", src, res.Instance)
		}
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	set := deps.MustParse("P(x) -> R(x,z).")
	db := instance.MustFromAtoms(instance.NewAtom("P", term.Const("a")))
	if _, err := Run(db, set, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Errorf("input mutated: %s", db)
	}
}

func TestNonRecursiveChaseDepthMatchesStratification(t *testing.T) {
	set := deps.MustParse("A(x) -> B(x).\nB(x) -> C(x).\nC(x) -> D(x).")
	db := instance.MustFromAtoms(instance.NewAtom("A", term.Const("a")))
	res, err := Run(db, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3}
	for key, d := range res.Depth {
		pred := key[:strings.IndexByte(key, 0)]
		if wantDepth[pred] != d {
			t.Errorf("depth(%s) = %d, want %d", pred, d, wantDepth[pred])
		}
	}
}

// TestQueryMapOrderDeterministic: the restricted chase's result depends
// on which trigger fires first. Run starts from a clone of the frozen
// query, and Instance.Clone keeps index order, so every run fires in
// the same order and reaches the same instance (null names aside: they
// come from a process-wide counter).
func TestQueryMapOrderDeterministic(t *testing.T) {
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), P(x,y), P(y,x), P(x,x).")
	set := deps.MustParse("P(x,y) -> Q(x,z), Q(y,z).")
	render := func() string {
		res, _, err := Query(q, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var atoms []string
		for _, a := range res.Instance.Atoms() {
			a = a.Clone()
			for i, x := range a.Args {
				if x.IsNull() {
					a.Args[i] = term.Const("_")
				}
			}
			atoms = append(atoms, a.String())
		}
		return res.Stats.Fingerprint() + " " + strings.Join(atoms, " ")
	}
	want := render()
	for i := 0; i < 200; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d: %s\nfirst run: %s", i, got, want)
		}
	}
}
