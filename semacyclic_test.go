package semacyclic

import (
	"fmt"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/term"
)

// TestFacadeEndToEnd drives the public API through the paper's
// Example 1, touching every major entry point once.
func TestFacadeEndToEnd(t *testing.T) {
	q, err := ParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := ParseDependencies("Interest(x,z), Class(y,z) -> Owns(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	if IsAcyclic(q) {
		t.Error("Example 1 query should be cyclic")
	}
	if _, ok := JoinTree(q); ok {
		t.Error("cyclic query has no join tree")
	}
	if Core(q).Size() != 3 {
		t.Error("Example 1 query is its own core")
	}

	res, err := Decide(q, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || !IsAcyclic(res.Witness) {
		t.Fatalf("Decide = %+v", res)
	}

	// Build a tiny satisfying database and evaluate three ways.
	db, err := NewDatabase(
		NewAtom("Interest", Const("alice"), Const("jazz")),
		NewAtom("Class", Const("kind_of_blue"), Const("jazz")),
		NewAtom("Owns", Const("alice"), Const("kind_of_blue")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !Satisfies(db, sigma) {
		t.Fatal("database should satisfy Σ")
	}
	direct := Evaluate(q, db)
	fast, err := EvaluateAcyclic(res.Witness, db)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(q, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaEv, err := ev.Evaluate(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 1 || len(fast) != 1 || len(viaEv) != 1 {
		t.Fatalf("answer counts: direct=%d fast=%d evaluator=%d", len(direct), len(fast), len(viaEv))
	}

	// Containment and equivalence.
	witness := res.Witness
	eq, err := Equivalent(q, witness, sigma, ContainmentOptions{})
	if err != nil || !eq.Holds {
		t.Fatalf("Equivalent = %+v, %v", eq, err)
	}
	sub, err := Contains(witness, q, sigma, ContainmentOptions{})
	if err != nil || !sub.Holds {
		t.Fatalf("Contains = %+v, %v", sub, err)
	}

	// Chase.
	cres, err := Chase(db, sigma, ChaseOptions{})
	if err != nil || !cres.Complete {
		t.Fatalf("Chase = %+v, %v", cres, err)
	}
	qres, frozen, err := ChaseQuery(witness, sigma, ChaseOptions{})
	if err != nil || len(frozen) != 2 || qres.Instance.Len() != 3 {
		t.Fatalf("ChaseQuery = %v, %v, %v", qres, frozen, err)
	}

	// Classes.
	got := Classes(sigma)
	found := false
	for _, c := range got {
		if c == ClassFull {
			found = true
		}
	}
	if !found {
		t.Errorf("Classes = %v, missing full", got)
	}
}

func TestFacadeUCQAndApproximation(t *testing.T) {
	u, err := ParseUCQ("q :- E(x,y), E(y,z), E(z,x).\nq :- E(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	set := MustParseDependencies("% none\nE(x,y) -> E(x,y).")
	ures, err := DecideUCQ(u, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ures.Verdict != Yes {
		t.Errorf("UCQ verdict = %s", ures.Verdict)
	}

	tri := MustParseQuery("q :- E(x,y), E(y,z), E(z,x).")
	ap, err := Approximate(tri, &Dependencies{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsAcyclic(ap.Query) || ap.Equivalent {
		t.Errorf("approximation = %+v", ap)
	}
}

func TestFacadeRewriteAndGame(t *testing.T) {
	set := MustParseDependencies("A(x) -> B(x).")
	q := MustParseQuery("q(x) :- B(x).")
	rw, err := RewriteUCQ(q, set, RewriteOptions{})
	if err != nil || len(rw.UCQ.Disjuncts) != 2 {
		t.Fatalf("RewriteUCQ = %v, %v", rw, err)
	}

	db, _ := NewDatabase(
		NewAtom("E", Const("a"), Const("b")),
		NewAtom("P", Const("a")),
	)
	qq := MustParseQuery("q(x) :- E(x,y), P(x).")
	ans, err := EvaluateGuardedGame(qq, db)
	if err != nil || len(ans) != 1 || ans[0][0] != Const("a") {
		t.Errorf("game answers = %v, %v", ans, err)
	}

	key := MustParseDependencies("R(x,y), R(x,z) -> y = z.")
	db2, _ := NewDatabase(
		NewAtom("R", Const("a"), Const("b")),
		NewAtom("P", Const("b")),
		NewAtom("Q", Const("b")),
	)
	q2 := MustParseQuery("q(x) :- R(x,y), P(y), R(x,z), Q(z).")
	ans2, err := EvaluateEGDGame(q2, key, db2)
	if err != nil || len(ans2) != 1 {
		t.Errorf("egd game answers = %v, %v", ans2, err)
	}
}

// The game helpers are Plans: they validate q exactly as CompilePlan
// does, so a query holding a constant in the reserved frozen namespace
// is an error rather than a variable in disguise.
func TestFacadeGameHelpersRejectFrozenConstants(t *testing.T) {
	q := &CQ{Name: "q", Free: []Term{Var("x")},
		Atoms: []Atom{NewAtom("E", Var("x"), Const(term.FrozenPrefix+"w"))}}
	db, err := ParseDatabase("E(a,b).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompilePlan(q, nil, Options{}, MethodGuardedGame); err == nil {
		t.Fatal("CompilePlan accepted a frozen-namespace constant")
	}
	if ans, err := EvaluateGuardedGame(q, db); err == nil {
		t.Errorf("EvaluateGuardedGame = %v, want an error", ans)
	}
	key := MustParseDependencies("E(x,y), E(x,z) -> y = z.")
	if ans, err := EvaluateEGDGame(q, key, db); err == nil {
		t.Errorf("EvaluateEGDGame = %v, want an error", ans)
	}
}

// The game helpers return answers in the canonical order every Plan
// returns, not in database order.
func TestFacadeGameHelpersCanonicalOrder(t *testing.T) {
	db, err := ParseDatabase("E(z,b). E(a,b). P(z). P(a).")
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("q(x) :- E(x,y), P(x).")
	ans, err := EvaluateGuardedGame(q, db)
	if err != nil || fmt.Sprint(ans) != "[[a] [z]]" {
		t.Errorf("EvaluateGuardedGame = %v, %v; want [[a] [z]]", ans, err)
	}
	key := MustParseDependencies("E(x,y), E(x,z) -> y = z.")
	ans, err = EvaluateEGDGame(q, key, db)
	if err != nil || fmt.Sprint(ans) != "[[a] [z]]" {
		t.Errorf("EvaluateEGDGame = %v, %v; want [[a] [z]]", ans, err)
	}
}

// EvaluateUCQ keeps answers apart whose names differ only in where NUL
// bytes fall, and returns the union in canonical order.
func TestEvaluateUCQDistinctCanonicalAnswers(t *testing.T) {
	q := MustParseQuery("q(x,y) :- R(x,y).")
	u, err := cq.NewUCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(
		NewAtom("R", Const("a"), Const("b\x00\x00c")),
		NewAtom("R", Const("a\x00\x00b"), Const("c")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EvaluateUCQ(u, db), Evaluate(q, db); fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) || len(got) != 2 {
		t.Errorf("EvaluateUCQ = %q, Evaluate = %q", got, want)
	}

	u, err = ParseUCQ("q(x,y) :- A(x,y).\nq(x,y) :- B(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	db, err = ParseDatabase("A(a,a). A(z,z). B(b,b). B(a,a).")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(EvaluateUCQ(u, db)); got != "[[a a] [b b] [z z]]" {
		t.Errorf("EvaluateUCQ = %s, want [[a a] [b b] [z z]]", got)
	}
}

func TestFacadeTermsAndVerdicts(t *testing.T) {
	if !Const("a").IsConst() || !Var("x").IsVar() {
		t.Error("term constructors wrong")
	}
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Error("verdict constants wrong")
	}
	ins := NewInstance()
	if err := ins.Add(NewAtom("R", Const("a"))); err != nil {
		t.Fatal(err)
	}
	if ins.Len() != 1 {
		t.Error("instance add failed")
	}
}
