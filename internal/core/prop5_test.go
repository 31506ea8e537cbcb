package core

import (
	"testing"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
)

// The Σ for the Proposition 5 tests must keep the triangle
// non-semantically-acyclic (Proposition 5's premise). Plain
// transitivity fails that: it creates self-loops, making the triangle
// ≡Σ E(x,x). The F-headed variant creates no E-atoms at all.
var prop5Sigma = "E(x,y), E(y,z) -> F(x,z)."

// TestProposition5Positive: the self-loop query is contained in the
// triangle; Proposition 5 turns that into semantic acyclicity of the
// conjunction.
func TestProposition5Positive(t *testing.T) {
	sigma := deps.MustParse(prop5Sigma)
	loop := cq.MustParse("q :- E(v,v).")
	triangle := cq.MustParse("q :- E(a,b), E(b,c), E(c,a).")

	// Premise check with the containment machinery.
	base, err := containment.Contains(loop, triangle, sigma, containment.Options{})
	if err != nil || !base.Holds {
		t.Fatalf("premise: loop ⊆Σ triangle should hold: %+v %v", base, err)
	}

	res, err := ContainmentViaSemAc(loop, triangle, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Errorf("Proposition 5 direction failed: %+v", res)
	}
}

// TestProposition5Negative: a single edge is not Σ-contained in the
// triangle, so the conjunction must not be semantically acyclic.
func TestProposition5Negative(t *testing.T) {
	sigma := deps.MustParse(prop5Sigma)
	edge := cq.MustParse("q :- E(x,y).")
	triangle := cq.MustParse("q :- E(a,b), E(b,c), E(c,a).")

	base, err := containment.Contains(edge, triangle, sigma, containment.Options{})
	if err != nil || base.Holds {
		t.Fatalf("premise: edge ⊆Σ triangle should fail: %+v %v", base, err)
	}

	res, err := ContainmentViaSemAc(edge, triangle, sigma, Options{SearchBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Yes {
		t.Errorf("Proposition 5 produced a spurious yes: %+v", res)
	}
}

func TestProposition5PremiseChecks(t *testing.T) {
	sigma := deps.MustParse(prop5Sigma)
	disconnectedSigma := deps.MustParse("E(x,y), F(u,v) -> E(x,u).")
	edge := cq.MustParse("q :- E(x,y).")
	nonBool := cq.MustParse("q(x) :- E(x,y).")
	disconnected := cq.MustParse("q :- E(x,y), F(u,v).")
	cyclic := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")

	cases := []struct {
		name  string
		q, qp *cq.CQ
		set   *deps.Set
	}{
		{"non-boolean", nonBool, edge, sigma},
		{"disconnected q'", edge, disconnected, sigma},
		{"cyclic left", cyclic, edge, sigma},
		{"disconnected tgd body", edge, edge, disconnectedSigma},
	}
	for _, c := range cases {
		if _, err := ContainmentViaSemAc(c.q, c.qp, c.set, Options{}); err == nil {
			t.Errorf("%s: premise violation accepted", c.name)
		}
	}
}

// TestProposition5SharedVariablesRenamed: q and q' sharing variable
// names must not leak bindings into each other.
func TestProposition5SharedVariablesRenamed(t *testing.T) {
	sigma := deps.MustParse(prop5Sigma)
	loopSharingVars := cq.MustParse("q :- E(x,x).")
	triangleSameVars := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	res, err := ContainmentViaSemAc(loopSharingVars, triangleSameVars, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Errorf("renaming-apart failed: %+v", res)
	}
}

// TestProposition5QueryWithOwnVNames: a q' that itself names a variable
// v<N> keeps its shape when renamed apart from q. The renaming used to
// map x ↦ v0 beside v0 ↦ v1, so the triangle collapsed onto a self-loop
// and an edge looked Σ-contained in it.
func TestProposition5QueryWithOwnVNames(t *testing.T) {
	sigma := deps.MustParse(prop5Sigma)
	edge := cq.MustParse("q :- E(a,b).")
	for _, triangle := range []string{
		"q :- E(x,v0), E(v0,z), E(z,x).",
		"q :- E(x,y), E(y,z), E(z,x).",
		"q :- E(v1,v0), E(v0,v2), E(v2,v1).",
	} {
		res, err := ContainmentViaSemAc(edge, cq.MustParse(triangle), sigma, Options{SearchBudget: 500})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == Yes {
			t.Errorf("edge ⊆Σ %s answered yes: %+v", triangle, res)
		}
	}
}
