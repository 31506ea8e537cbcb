package core

import (
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
)

func emptySet() *deps.Set { return &deps.Set{} }

func TestDecideNoConstraints(t *testing.T) {
	// Acyclic core: yes via layer 1.
	q := cq.MustParse("q(x) :- E(x,y), E(x,z).")
	res, err := Decide(q, emptySet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer != "core" || !res.Definitive {
		t.Errorf("result = %+v", res)
	}
	if !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Error("witness cyclic")
	}

	// Cyclic core without constraints: definitive no.
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	res, err = Decide(tri, emptySet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != No || !res.Definitive {
		t.Errorf("result = %+v", res)
	}
}

func TestDecideExample1(t *testing.T) {
	res, err := Decide(gen.Example1Query(), gen.Example1TGD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("Example 1 not recognized: %+v", res)
	}
	if !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Error("witness cyclic")
	}
	if res.Witness.Size() > 2*gen.Example1Query().Size() {
		t.Errorf("witness exceeds the small-query bound: %s", res.Witness)
	}
	if res.Layer != "quotient" {
		t.Errorf("expected the quotient layer to find Example 1, got %q", res.Layer)
	}
}

func TestDecideChaseSubsetWitness(t *testing.T) {
	// The triangle is definable as the guard atom under a two-way full
	// dependency; the witness T(x,y,z) only appears in the chase.
	set := deps.MustParse(`
E(x,y), E(y,z), E(z,x) -> T(x,y,z).
T(x,y,z) -> E(x,y), E(y,z), E(z,x).
`)
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("triangle-with-guard not recognized: %+v", res)
	}
	if !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Error("witness cyclic")
	}
}

func TestDecideUnderKey(t *testing.T) {
	// Under the key on R's first attribute, y and z merge and the query
	// becomes acyclic (a self-loop E(y,y) hangs off R(x,y)).
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q :- R(x,y), R(x,z), E(y,z).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("key reformulation not found: %+v", res)
	}
	if res.Bound != 2*q.Size() {
		t.Errorf("K2 bound = %d, want %d", res.Bound, 2*q.Size())
	}
}

func TestDecideNegativeUnderGuarded(t *testing.T) {
	// A triangle with an unrelated guarded dependency stays cyclic. The
	// complete search cannot exhaust its bound quickly, but the schema
	// is binary and constant-free and chase(q) is complete, so every
	// one-pair merge of the triangle is refuted definitively and the
	// shape layer answers a definitive no.
	set := deps.MustParse("Person(x) -> Parent(x,y).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	res, err := Decide(q, set, Options{SearchBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != No || !res.Definitive || res.Layer != "shape" {
		t.Fatalf("want a definitive no from the shape layer: %+v", res)
	}
}

func TestDecideUndecidableClassReportsUnknown(t *testing.T) {
	// Full tgds that are neither guarded, NR, sticky nor WA: no bound.
	set := deps.MustParse("E(x,y), E(y,z) -> E(x,z).\nE(x,y), F(y,z) -> E(z,x).")
	if set.IsGuarded() || set.IsNonRecursive() || set.IsSticky() {
		t.Fatalf("premise wrong: %v", set.Classes())
	}
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), F(x,z).")
	res, err := Decide(q, set, Options{SearchBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == No && res.Definitive {
		t.Errorf("definitive no outside decidable classes: %+v", res)
	}
	if res.Verdict == Unknown && res.Layer != "undecidable-class" {
		t.Errorf("layer = %q", res.Layer)
	}
}

func TestDecideGuardedWithExistential(t *testing.T) {
	// Guarded set; q's cyclic part is implied by a guard atom in q.
	set := deps.MustParse("G(x,y,z) -> E(x,y), E(y,z), E(z,x).")
	q := cq.MustParse("q :- G(x,y,z), E(x,y), E(y,z), E(z,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("guard-implied triangle not recognized: %+v", res)
	}
	// q is already acyclic here (the guard atom covers the triangle),
	// so layer 1 answers with the core itself.
	if res.Layer != "core" || !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Errorf("result = %+v", res)
	}
}

func TestDecideInvalidQuery(t *testing.T) {
	bad := &cq.CQ{Name: "q"}
	if _, err := Decide(bad, emptySet(), Options{}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestWitnessBoundPerClass(t *testing.T) {
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	guarded := deps.MustParse("E(x,y) -> E(y,z).")
	if got := witnessBound(q, guarded); got != 6 {
		t.Errorf("guarded bound = %d, want 6", got)
	}
	keys := deps.MustParse("E(x,y), E(x,z) -> y = z.")
	if got := witnessBound(q, keys); got != 6 {
		t.Errorf("K2 bound = %d, want 6", got)
	}
	full := deps.MustParse("E(x,y), E(y,z) -> E(x,z).\nE(x,y), F(y,z) -> E(z,x).")
	if got := witnessBound(q, full); got != 0 {
		t.Errorf("undecidable-class bound = %d, want 0", got)
	}
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Error("verdict strings wrong")
	}
}

func TestWitnessBoundK2RequiresBinarySignature(t *testing.T) {
	// Example 4's shape: a binary key but a ternary predicate in the
	// query — the Proposition 22 argument does not apply, so no bound.
	key := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := gen.Example4Query() // uses ternary S
	if got := witnessBound(q, key); got != 0 {
		t.Errorf("bound = %d, want 0 (ternary predicate in scope)", got)
	}
	// With a purely binary query the bound applies.
	qBin := cq.MustParse("q :- R(x,y), R(x,z), E(y,z).")
	if got := witnessBound(qBin, key); got != 2*qBin.Size() {
		t.Errorf("bound = %d, want %d", got, 2*qBin.Size())
	}
}
