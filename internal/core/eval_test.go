package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// executePlan compiles (q, Σ) with method and executes it on db.
func executePlan(t *testing.T, q *cq.CQ, set *deps.Set, method string, db *instance.Instance) [][]term.Term {
	t.Helper()
	p, err := CompilePlan(q, set, Options{}, method)
	if err != nil {
		t.Fatalf("compile %s: %v", method, err)
	}
	ans, _, err := p.Execute(db, EvalOptions{})
	if err != nil {
		t.Fatalf("execute %s: %v", method, err)
	}
	return ans
}

// The Yannakakis plan — what the facade's Evaluator runs — computes the
// reformulation once and answers exactly as direct evaluation does.
func TestEvaluatorMatchesDirectEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	q := gen.Example1Query()
	p, err := CompilePlan(q, gen.Example1TGD(), Options{}, MethodYannakakis)
	if err != nil {
		t.Fatal(err)
	}
	if p.Verdict != Yes {
		t.Errorf("plan verdict %s, want yes", p.Verdict)
	}
	for trial := 0; trial < 10; trial++ {
		db := gen.Example1DB(r, 4+r.Intn(8), 4+r.Intn(8), 3)
		fast, _, err := p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow := hom.Evaluate(q, db)
		if fmt.Sprint(fast) != fmt.Sprint(slow) {
			t.Fatalf("trial %d: answers differ: %v vs %v on %s", trial, fast, slow, db)
		}
	}
}

func TestEvaluatorBool(t *testing.T) {
	q := gen.Example1Query()
	db := gen.Example1DB(rand.New(rand.NewSource(6)), 5, 5, 3)
	ans := executePlan(t, q, gen.Example1TGD(), MethodYannakakis, db)
	if (len(ans) > 0) != hom.EvaluateBool(q, db) {
		t.Error("bool evaluation disagrees")
	}
}

func TestNewEvaluatorRejectsNonSemAc(t *testing.T) {
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	_, err := CompilePlan(tri, emptySet(), Options{}, MethodYannakakis)
	if err == nil || !strings.Contains(err.Error(), "not verifiably semantically acyclic") {
		t.Errorf("yannakakis plan of a non-semantically-acyclic query: err = %v", err)
	}
}

func TestEvaluateGuardedGame(t *testing.T) {
	// Under the guarded set E(x,y) → P(x) the query is semantically
	// acyclic (its core is already acyclic), and the database below
	// satisfies it; Theorem 25 says the game decides evaluation.
	set := deps.MustParse("E(x,y) -> P(x).")
	q := cq.MustParse("q(x) :- E(x,y), P(x).")
	db := instance.MustFromAtoms(
		instance.NewAtom("E", term.Const("a"), term.Const("b")),
		instance.NewAtom("P", term.Const("a")),
		instance.NewAtom("P", term.Const("z")),
	)
	got := executePlan(t, q, set, MethodGuardedGame, db)
	if want := hom.Evaluate(q, db); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 1 {
		t.Fatalf("game answers %v, direct %v", got, want)
	}
}

func TestEvaluateEGDGame(t *testing.T) {
	// The FD forces R's successor unique: q asks for P and Q at the two
	// successors, which on FD-satisfying databases collapse to one.
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q(x) :- R(x,y), P(y), R(x,z), Q(z).")
	db := instance.MustFromAtoms(
		instance.NewAtom("R", term.Const("a"), term.Const("b")),
		instance.NewAtom("P", term.Const("b")),
		instance.NewAtom("Q", term.Const("b")),
		instance.NewAtom("R", term.Const("c"), term.Const("d")),
		instance.NewAtom("P", term.Const("d")),
	)
	got := executePlan(t, q, set, MethodEGDGame, db)
	if want := hom.Evaluate(q, db); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 1 {
		t.Fatalf("game answers %v, direct %v", got, want)
	}
	// Boolean variant.
	qb := cq.MustParse("q :- R(x,y), P(y), R(x,z), Q(z).")
	if gotB := executePlan(t, qb, set, MethodEGDGame, db); len(gotB) != 1 {
		t.Errorf("boolean game answers = %v", gotB)
	}
	// Rejects tgd sets.
	if _, err := CompilePlan(q, deps.MustParse("R(x,y) -> P(y)."), Options{}, MethodEGDGame); err == nil {
		t.Error("tgd set accepted")
	}
}

func TestDecideUCQ(t *testing.T) {
	set := gen.Example1TGD()
	// Disjunct 1: Example 1 (yes, via witness). Disjunct 2: redundant
	// (contained in disjunct 1 under Σ — actually equal to its witness).
	u, err := cq.NewUCQ(gen.Example1Query(), gen.Example1Witness())
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecideUCQ(u, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("UCQ verdict = %s", res.Verdict)
	}
	if res.Witness == nil || len(res.Witness.Disjuncts) == 0 {
		t.Fatal("no witness union")
	}
	redundantCount := 0
	for _, r := range res.Redundant {
		if r {
			redundantCount++
		}
	}
	if redundantCount != 1 {
		t.Errorf("redundant = %v", res.Redundant)
	}
}

func TestDecideUCQWithCyclicDisjunct(t *testing.T) {
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	path := cq.MustParse("q :- E(x,y).")
	u, err := cq.NewUCQ(tri, path)
	if err != nil {
		t.Fatal(err)
	}
	// The triangle is contained in the single-edge disjunct (every
	// triangle has an edge), so it is redundant and the UCQ is
	// semantically acyclic.
	res, err := DecideUCQ(u, emptySet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("verdict = %s (redundant=%v)", res.Verdict, res.Redundant)
	}
	if !res.Redundant[0] || res.Redundant[1] {
		t.Errorf("redundancy = %v", res.Redundant)
	}
}

func TestDecideUCQNegative(t *testing.T) {
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	other := cq.MustParse("q :- F(x,y).")
	u, err := cq.NewUCQ(tri, other)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecideUCQ(u, emptySet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != No || !res.Definitive {
		t.Errorf("verdict = %+v", res)
	}
	if _, err := DecideUCQ(nil, emptySet(), Options{}); err == nil {
		t.Error("nil UCQ accepted")
	}
}
