package containment

import (
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/rewrite"
)

func decide(t *testing.T, q, qp, set string, opt Options) Decision {
	t.Helper()
	var s *deps.Set
	if set == "" {
		s = &deps.Set{}
	} else {
		s = deps.MustParse(set)
	}
	d, err := Contains(cq.MustParse(q), cq.MustParse(qp), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlainContainment(t *testing.T) {
	d := decide(t, "q(x) :- E(x,y), E(y,z).", "q(x) :- E(x,y).", "", Options{})
	if !d.Holds || !d.Definitive || d.Method != MethodPlain {
		t.Errorf("decision = %+v", d)
	}
	d = decide(t, "q(x) :- E(x,y).", "q(x) :- E(x,y), E(y,z).", "", Options{})
	if d.Holds || !d.Definitive {
		t.Errorf("decision = %+v", d)
	}
}

func TestArityMismatch(t *testing.T) {
	d := decide(t, "q(x) :- E(x,y).", "q(x,y) :- E(x,y).", "", Options{})
	if d.Holds || !d.Definitive {
		t.Errorf("decision = %+v", d)
	}
}

func TestExample1UnderFullTGD(t *testing.T) {
	// q' ⊆Σ q and q ⊆Σ q' — Example 1's equivalence.
	set := "Interest(x,z), Class(y,z) -> Owns(x,y)."
	q := "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y)."
	qp := "q(x,y) :- Interest(x,z), Class(y,z)."
	if d := decide(t, qp, q, set, Options{}); !d.Holds || !d.Definitive || d.Method != MethodChase {
		t.Errorf("q' ⊆Σ q: %+v", d)
	}
	if d := decide(t, q, qp, set, Options{}); !d.Holds || !d.Definitive {
		t.Errorf("q ⊆Σ q': %+v", d)
	}
	// Without the constraint, q' is not contained in q.
	if d := decide(t, qp, q, "", Options{}); d.Holds {
		t.Errorf("q' ⊆ q without Σ: %+v", d)
	}
	eq, err := Equivalent(cq.MustParse(q), cq.MustParse(qp), deps.MustParse(set), Options{})
	if err != nil || !eq.Holds || !eq.Definitive {
		t.Errorf("Equivalent = %+v, %v", eq, err)
	}
}

func TestGuardedBoundedChase(t *testing.T) {
	// Linear (hence guarded) set with an infinite chase.
	set := "Person(x) -> Parent(x,y).\nParent(x,y) -> Person(y)."
	q := "q(x) :- Person(x)."
	qp := "q(x) :- Parent(x,y), Parent(y,z)."
	d := decide(t, q, qp, set, Options{})
	if !d.Holds || d.Method != MethodBounded {
		t.Errorf("decision = %+v", d)
	}
	// Negative case under truncation is not definitive.
	qn := "q(x) :- Dead(x)."
	dn := decide(t, q, qn, set, Options{})
	if dn.Holds {
		t.Errorf("decision = %+v", dn)
	}
	if dn.Definitive {
		t.Errorf("negative answer under truncated chase must not be definitive: %+v", dn)
	}
}

func TestStickyRewritingMethod(t *testing.T) {
	// Sticky but neither guarded, non-recursive, full nor weakly
	// acyclic, so auto-dispatch must pick the rewriting method.
	set := "P(x), P(y) -> R(x,y).\nR(x,y) -> P(z), Q(x,z)."
	s := deps.MustParse(set)
	if !s.IsSticky() || s.IsGuarded() || s.IsNonRecursive() || s.IsFull() || s.IsWeaklyAcyclic() {
		t.Fatalf("test set has wrong classes: %v", s.Classes())
	}
	q := "q :- P(a), P(b)."
	qp := "q :- R(u,v)."
	d := decide(t, q, qp, set, Options{})
	if d.Method != MethodRewrite {
		t.Errorf("method = %s", d.Method)
	}
	if !d.Holds || !d.Definitive {
		t.Errorf("decision = %+v", d)
	}
}

func TestEGDContainment(t *testing.T) {
	// Under the key, y and z merge, so P and Q hold of the same node.
	set := "R(x,y), R(x,z) -> y = z."
	q := "q(x) :- R(x,y), P(y), R(x,z), Q(z)."
	qp := "q(x) :- R(x,y), P(y), Q(y)."
	if d := decide(t, q, qp, set, Options{}); !d.Holds || !d.Definitive || d.Method != MethodChase {
		t.Errorf("⊆ under key: %+v", d)
	}
	// Without the key that direction fails (P and Q on distinct nodes).
	if d := decide(t, q, qp, "", Options{}); d.Holds {
		t.Errorf("⊆ without key: %+v", d)
	}
	// The converse holds plainly.
	if d := decide(t, qp, q, "", Options{}); !d.Holds {
		t.Errorf("⊇ plain: %+v", d)
	}
}

func TestForcedMethodAndErrors(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	_, err := Contains(cq.MustParse("q :- R(x,y)."), cq.MustParse("q :- R(x,y)."), set,
		Options{Method: MethodRewrite})
	if err == nil {
		t.Error("rewriting over egds should error")
	}
	_, err = Contains(cq.MustParse("q :- R(x,y)."), cq.MustParse("q :- R(x,y)."), set,
		Options{Method: "nope"})
	if err == nil {
		t.Error("unknown method accepted")
	}
}

func TestTruncatedRewritingNotDefinitive(t *testing.T) {
	set := "A(x) -> B(x).\nB(x) -> C(x)."
	d := decide(t, "q :- A(u).", "q :- C(u).", set,
		Options{Method: MethodRewrite, Rewrite: rewrite.Options{MaxDisjuncts: 2}})
	// With only 2 disjuncts the A-rewriting may be missed; whatever the
	// verdict, a negative must be non-definitive.
	if !d.Holds && d.Definitive {
		t.Errorf("truncated negative marked definitive: %+v", d)
	}
}

func TestEquivalentShortCircuit(t *testing.T) {
	set := deps.MustParse("R(x,y) -> S(y).")
	d, err := Equivalent(cq.MustParse("q :- S(u)."), cq.MustParse("q :- T(u)."), set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Holds {
		t.Errorf("unrelated queries equivalent: %+v", d)
	}
}

func TestChaseOptionsPropagate(t *testing.T) {
	set := "Person(x) -> Parent(x,y).\nParent(x,y) -> Person(y)."
	q := "q(x) :- Person(x)."
	// A long chain needs more depth than 1.
	qp := "q(x) :- Parent(x,y1), Parent(y1,y2), Parent(y2,y3), Parent(y3,y4)."
	d := decide(t, q, qp, set, Options{Chase: chase.Options{MaxDepth: 1}})
	if d.Holds {
		t.Errorf("found witness beyond depth budget: %+v", d)
	}
	if d.Definitive {
		t.Error("truncated negative marked definitive")
	}
	d = decide(t, q, qp, set, Options{})
	if !d.Holds {
		t.Errorf("default budget too small: %+v", d)
	}
}

func TestUnsatisfiableLeftSideTriviallyContained(t *testing.T) {
	set := "R(x,y), R(x,z) -> y = z."
	unsat := "q :- R(x,'a'), R(x,'b')."
	other := "q :- T(u)."
	d := decide(t, unsat, other, set, Options{})
	if !d.Holds || !d.Definitive {
		t.Errorf("unsat ⊆Σ anything should hold: %+v", d)
	}
	// The converse does not hold (T(u) is satisfiable, unsat never matches).
	d = decide(t, other, unsat, set, Options{})
	if d.Holds {
		t.Errorf("satisfiable ⊆Σ unsatisfiable accepted: %+v", d)
	}
}

// TestPreparedMatchesContains: Prepared.Check must return exactly what
// Contains returns, across every method selection path — it is the
// same procedure with the right-hand-side work hoisted. One runner
// serves every check, so a run that reads scratch an earlier check left
// behind shows up as a disagreement.
func TestPreparedMatchesContains(t *testing.T) {
	var r chase.Runner
	cases := []struct {
		name string
		set  *deps.Set
	}{
		{"plain", &deps.Set{}},
		{"full", deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")},
		{"guarded-recursive", deps.MustParse("Owns(x,y) -> Owns(y,w).")},
		{"sticky", deps.MustParse("UA(x), UB(y) -> Owns(x,y).\nOwns(x,y) -> Owns(y,w).\nUB(x), UA(y) -> Interest(x,y).")},
		{"egd", deps.MustParse("Owns(x,y), Owns(x,z) -> y = z.")},
	}
	qp := cq.MustParse("q(x) :- Interest(x,z), Class(y,z), Owns(x,y).")
	lefts := []*cq.CQ{
		cq.MustParse("q(x) :- Interest(x,z), Class(y,z), Owns(x,y), Owns(x,u)."),
		cq.MustParse("q(x) :- Owns(x,y)."),
		cq.MustParse("q(x) :- Interest(x,z), Class(x,z)."),
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, err := Prepare(qp, c.set, Options{})
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			for _, q := range lefts {
				want, err := Contains(q, qp, c.set, Options{})
				if err != nil {
					t.Fatalf("Contains(%s): %v", q, err)
				}
				got, err := p.Check(q, &r, nil)
				if err != nil {
					t.Fatalf("Check(%s): %v", q, err)
				}
				if got != want {
					t.Errorf("%s: Check=%+v Contains=%+v", q, got, want)
				}
			}
		})
	}
}
