package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Auto plan selection mirrors the one-shot helpers: Yes → Yannakakis on
// the witness, otherwise the generic evaluator.
func TestCompilePlanAutoSelection(t *testing.T) {
	p, err := CompilePlan(gen.Example1Query(), gen.Example1TGD(), Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != MethodYannakakis || p.Witness == nil || p.Forest == nil || p.Verdict != Yes {
		t.Fatalf("plan = method %s verdict %s witness %v", p.Method, p.Verdict, p.Witness)
	}

	// A triangle with no constraints is not semantically acyclic.
	p, err = CompilePlan(cq.MustParse("q :- E(x,y), E(y,z), E(z,x)."), &deps.Set{}, Options{}, MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != MethodGeneric {
		t.Fatalf("cyclic auto plan method = %s, want %s", p.Method, MethodGeneric)
	}
	if _, err := CompilePlan(cq.MustParse("q :- E(x,y), E(y,z), E(z,x)."), &deps.Set{}, Options{}, MethodYannakakis); err == nil {
		t.Fatal("explicit yannakakis on a non-SemAc query should fail")
	}
}

func TestCompilePlanMethodPreconditions(t *testing.T) {
	q := cq.MustParse("q(x) :- E(x,y), P(x).")
	egds := deps.MustParse("E(x,y), E(x,z) -> y = z.")
	notGuarded := gen.Example1TGD()
	if _, err := CompilePlan(q, egds, Options{}, MethodGuardedGame); err == nil {
		t.Fatal("guarded-game should reject an egd set")
	}
	if _, err := CompilePlan(q, notGuarded, Options{}, MethodGuardedGame); err == nil {
		t.Fatal("guarded-game should reject a non-guarded tgd set")
	}
	if _, err := CompilePlan(q, notGuarded, Options{}, MethodEGDGame); err == nil {
		t.Fatal("egd-game should reject a tgd set")
	}
	if _, err := CompilePlan(q, &deps.Set{}, Options{}, "nonsense"); err == nil {
		t.Fatal("unknown method should fail")
	}
	if p, err := CompilePlan(q, egds, Options{}, MethodEGDGame); err != nil || p.Method != MethodEGDGame {
		t.Fatalf("egd-game compile: %v (method %v)", err, p)
	}
}

// Property: every applicable method's Execute returns the same
// canonical answer list as the generic backtracking evaluator.
func TestPlanExecuteMatchesGenericProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		q := gen.RandomAcyclicCQ(r, 2+r.Intn(4), []string{"E", "F"})
		db := gen.RandomGraphDB(r, 10+r.Intn(30), 8)
		want := canonicalizeAnswers(hom.Evaluate(q, db))
		for _, method := range []string{MethodAuto, MethodGeneric} {
			p, err := CompilePlan(q, &deps.Set{}, Options{}, method)
			if err != nil {
				t.Fatalf("trial %d: compile %s: %v (q=%s)", trial, method, err, q)
			}
			got, st, err := p.Execute(db, EvalOptions{})
			if err != nil {
				t.Fatalf("trial %d: execute %s: %v (q=%s)", trial, method, err, q)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: method %s answers differ\n got %v\nwant %v\nq=%s", trial, method, got, want, q)
			}
			if st.Answers != len(got) {
				t.Fatalf("trial %d: stats answers %d != %d", trial, st.Answers, len(got))
			}
		}
	}
}

// Execute honors EvalOptions.Cancel for every method.
func TestPlanExecuteCancelPreClosed(t *testing.T) {
	db := instance.New()
	for i := 0; i < 2000; i++ {
		if err := db.Add(instance.NewAtom("E", term.Const(fmt.Sprintf("a%d", i)), term.Const(fmt.Sprintf("a%d", i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	cancel := make(chan struct{})
	close(cancel)
	q := cq.MustParse("q(x,y) :- E(x,y).")
	for _, method := range []string{MethodAuto, MethodGeneric} {
		p, err := CompilePlan(q, &deps.Set{}, Options{}, method)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Execute(db, EvalOptions{Cancel: cancel}); !errors.Is(err, ErrCancelled) {
			t.Fatalf("method %s: err = %v, want ErrCancelled", method, err)
		}
	}
}
