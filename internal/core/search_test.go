package core

import (
	"errors"
	"testing"

	"semacyclic/internal/chase"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hypergraph"
)

// TestSearchCompleteFindsWitness exercises layer 4 directly: under
// E(x,y) → E(x,x), the triangle is equivalent to the single-atom
// self-loop E(v,v), which only the canonical enumerator produces at
// bound 1.
func TestSearchCompleteFindsWitness(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(x,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	opt := Options{SearchBudget: 5000}.withDefaults()
	w, examined, _, err := SearchComplete(q, set, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatalf("no witness found (examined %d)", examined)
	}
	if w.Size() != 1 || !hypergraph.IsAcyclic(w.Atoms) {
		t.Errorf("witness = %s", w)
	}
	ok, _, err := newVerifier(q, set, opt).verifyWitness(w)
	if err != nil || !ok {
		t.Errorf("witness does not verify: %v", err)
	}
}

// TestSearchCompleteExhaustsTinyBound: with bound 1 over a schema whose
// single-atom candidates all fail, the enumeration exhausts and the
// caller may report a bound-relative definitive miss.
func TestSearchCompleteExhaustsTinyBound(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(y,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	opt := Options{SearchBudget: 5000}.withDefaults()
	w, _, exhausted, err := SearchComplete(q, set, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("unexpected witness %s", w)
	}
	if !exhausted {
		t.Error("tiny bound should exhaust")
	}
}

// TestSearchCompleteCapReportsNonExhaustive: when the class bound is
// capped, exhaustion must be withheld.
func TestSearchCompleteCapReportsNonExhaustive(t *testing.T) {
	set := deps.MustParse("A(x) -> B(x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), B(x).")
	opt := Options{SearchBudget: 30}.withDefaults()
	// Class bound far above the cap.
	_, _, exhausted, err := SearchComplete(q, set, opt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if exhausted {
		t.Error("capped search claimed exhaustion")
	}
}

func TestDecideUCQUnknownPath(t *testing.T) {
	// A cyclic disjunct under a set outside every class with a witness
	// bound (full and recursive through W, not guarded, not sticky, not
	// NR): the verdict must degrade to unknown, not no. The rules only
	// produce W-atoms, so no acyclic reformulation of the E-triangle
	// can exist — but without a bound the library cannot certify that.
	set := deps.MustParse("E(x,y), E(y,z) -> W(x,z).\nW(x,y), E(y,z) -> W(x,z).")
	if set.IsGuarded() || set.IsSticky() || set.IsNonRecursive() {
		t.Fatalf("premise wrong: %v", set.Classes())
	}
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	other := cq.MustParse("q :- G(x).")
	u, err := cq.NewUCQ(tri, other)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecideUCQ(u, set, Options{SearchBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Yes {
		t.Fatalf("spurious yes: %+v", res)
	}
	if res.Verdict == No && res.Definitive {
		t.Errorf("definitive no outside decidable classes: %+v", res)
	}
}

func TestDecideCancellation(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	// A cyclic query with constraints so layers 2+ run and observe the
	// already-closed cancel channel.
	set := deps.MustParse("E(x,y) -> E(y,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	_, err := Decide(q, set, Options{Cancel: cancel})
	if err == nil {
		t.Fatal("cancelled decision returned no error")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error = %v", err)
	}
}

func TestDecideUCQParallel(t *testing.T) {
	set := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	disjuncts := []*cq.CQ{
		cq.MustParse("q :- Interest(x,z), Class(y,z), Owns(x,y)."),
		cq.MustParse("q :- Owns(a,b)."),
		cq.MustParse("q :- Interest(a,b)."),
		cq.MustParse("q :- Class(a,b)."),
	}
	u, err := cq.NewUCQ(disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := DecideUCQ(u, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := DecideUCQ(u, set, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != par.Verdict {
		t.Fatalf("verdicts differ: %s vs %s", seq.Verdict, par.Verdict)
	}
	for i := range seq.Redundant {
		if seq.Redundant[i] != par.Redundant[i] {
			t.Fatalf("redundancy differs at %d", i)
		}
		if (seq.PerDisjunct[i] == nil) != (par.PerDisjunct[i] == nil) {
			t.Fatalf("per-disjunct presence differs at %d", i)
		}
		if seq.PerDisjunct[i] != nil && seq.PerDisjunct[i].Verdict != par.PerDisjunct[i].Verdict {
			t.Fatalf("per-disjunct verdict differs at %d", i)
		}
	}
}

// TestDecideUnsatisfiableQuery: a query whose chase fails under the
// key is Σ-unsatisfiable, hence equivalent to the acyclic clash query
// built from the key itself.
func TestDecideUnsatisfiableQuery(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	// Cyclic AND unsatisfiable: the key forces 'a' = 'b'.
	q := cq.MustParse("q :- R(x,'a'), R(x,'b'), E(x,u), E(u,w), E(w,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer != "unsatisfiable" {
		t.Fatalf("result = %+v", res)
	}
	if !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Errorf("witness cyclic: %s", res.Witness)
	}
	// The witness must itself be Σ-unsatisfiable: its chase fails too.
	if _, _, err := chase.Query(res.Witness, set, chase.Options{}); err == nil {
		t.Error("witness chase should fail")
	}
}

// TestDecideUnsatisfiableWithFreeVars keeps the head intact.
func TestDecideUnsatisfiableWithFreeVars(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q(v) :- R(x,'a'), R(x,'b'), E(x,v), E(v,u), E(u,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Witness.Free) != 1 || res.Witness.Free[0].Name != "v" {
		t.Errorf("witness head wrong: %s", res.Witness)
	}
}

// TestSatisfiableConstantQueryUnaffected: the unsat path must not trip
// on satisfiable queries with constants.
func TestSatisfiableConstantQueryUnaffected(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q :- R(x,'a'), S(x,'b').")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer == "unsatisfiable" {
		t.Fatalf("result = %+v", res)
	}
}
