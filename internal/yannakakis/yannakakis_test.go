package yannakakis

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func edge(a, b string) instance.Atom {
	return instance.NewAtom("E", term.Const(a), term.Const(b))
}

func mustDB(t *testing.T, atoms ...instance.Atom) *instance.Instance {
	t.Helper()
	db, err := instance.FromAtoms(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRejectsCyclicQuery(t *testing.T) {
	q := cq.MustParse("q :- R(x,y), S(y,z), T(z,x).")
	if _, err := Evaluate(q, instance.New()); err == nil {
		t.Error("cyclic query accepted")
	}
}

func TestPathQuery(t *testing.T) {
	db := mustDB(t, edge("a", "b"), edge("b", "c"), edge("b", "d"), edge("x", "y"))
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a c": true, "a d": true}
	if len(got) != len(want) {
		t.Fatalf("answers = %v", got)
	}
	for _, tup := range got {
		if !want[tup[0].Name+" "+tup[1].Name] {
			t.Errorf("unexpected %v", tup)
		}
	}
}

func TestBooleanQuery(t *testing.T) {
	db := mustDB(t, edge("a", "b"))
	yes := cq.MustParse("q :- E(x,y).")
	no := cq.MustParse("q :- E(x,x).")
	// Boolean true answers are a single empty tuple, false ones none.
	if ans, err := Evaluate(yes, db); err != nil || len(ans) != 1 || len(ans[0]) != 0 {
		t.Errorf("yes query: answers %v, err %v", ans, err)
	}
	if ans, err := Evaluate(no, db); err != nil || len(ans) != 0 {
		t.Errorf("no query: answers %v, err %v", ans, err)
	}
}

func TestConstantsInAtoms(t *testing.T) {
	db := mustDB(t, edge("a", "b"), edge("c", "b"))
	q := cq.MustParse("q(x) :- E(x,y), E('c',y).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // a and c both reach b, which c reaches
		t.Errorf("answers = %v", got)
	}
	q2 := cq.MustParse("q(x) :- E(x,'zzz').")
	if got, _ := Evaluate(q2, db); len(got) != 0 {
		t.Errorf("expected empty, got %v", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	db := mustDB(t, edge("a", "a"), edge("a", "b"))
	q := cq.MustParse("q(x) :- E(x,x).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Name != "a" {
		t.Errorf("answers = %v", got)
	}
}

func TestDisconnectedQueryCrossProduct(t *testing.T) {
	db := mustDB(t, edge("a", "b"), instance.NewAtom("P", term.Const("u")), instance.NewAtom("P", term.Const("v")))
	q := cq.MustParse("q(x,w) :- E(x,y), P(w).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
	// Empty side kills the product.
	q2 := cq.MustParse("q(x,w) :- E(x,y), Q(w).")
	if got, _ := Evaluate(q2, mustDB(t, edge("a", "b"), instance.NewAtom("Q", term.Const("u")))); len(got) != 1 {
		t.Errorf("answers = %v", got)
	}
	dbNoQ := mustDB(t, edge("a", "b"))
	dbNoQ.Schema().Add("Q", 1)
	if got, _ := Evaluate(q2, dbNoQ); len(got) != 0 {
		t.Errorf("expected empty product, got %v", got)
	}
}

func TestSemijoinReductionPrunes(t *testing.T) {
	// Dangling tuples everywhere; only one full path exists.
	db := mustDB(t,
		instance.NewAtom("A", term.Const("1"), term.Const("2")),
		instance.NewAtom("A", term.Const("9"), term.Const("9")),
		instance.NewAtom("B", term.Const("2"), term.Const("3")),
		instance.NewAtom("B", term.Const("8"), term.Const("8")),
		instance.NewAtom("C", term.Const("3"), term.Const("4")),
	)
	q := cq.MustParse("q(x,w) :- A(x,y), B(y,z), C(z,w).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Name != "1" || got[0][1].Name != "4" {
		t.Errorf("answers = %v", got)
	}
}

func TestStarQueryWithSharedCenter(t *testing.T) {
	db := mustDB(t,
		edge("c", "l1"), edge("c", "l2"),
		instance.NewAtom("F", term.Const("c"), term.Const("m")),
	)
	q := cq.MustParse("q(x) :- E(x,a), E(x,b), F(x,m).")
	got, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Name != "c" {
		t.Errorf("answers = %v", got)
	}
}

// randomAcyclicQuery grows a tree-shaped query over binary predicate E
// and unary P, with some free variables.
func randomAcyclicQuery(r *rand.Rand) *cq.CQ {
	n := 1 + r.Intn(5)
	vars := []term.Term{term.Var("v0")}
	var atoms []instance.Atom
	for i := 0; i < n; i++ {
		old := vars[r.Intn(len(vars))]
		fresh := term.Var(fmt.Sprintf("v%d", len(vars)))
		vars = append(vars, fresh)
		if r.Intn(4) == 0 {
			atoms = append(atoms, instance.NewAtom("P", old))
			atoms = append(atoms, instance.NewAtom("E", old, fresh))
		} else if r.Intn(2) == 0 {
			atoms = append(atoms, instance.NewAtom("E", old, fresh))
		} else {
			atoms = append(atoms, instance.NewAtom("E", fresh, old))
		}
	}
	var free []term.Term
	for _, v := range vars {
		if r.Intn(3) == 0 {
			free = append(free, v)
		}
	}
	q, err := cq.New(free, atoms)
	if err != nil {
		// Free variable not in body can't happen (all vars are in atoms);
		// but keep the generator total.
		q = cq.MustNew(nil, atoms)
	}
	return q
}

func randomDB(r *rand.Rand, size int) *instance.Instance {
	db := instance.New()
	consts := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < size; i++ {
		x := term.Const(consts[r.Intn(len(consts))])
		y := term.Const(consts[r.Intn(len(consts))])
		if r.Intn(5) == 0 {
			db.Add(instance.NewAtom("P", x))
		} else {
			db.Add(instance.NewAtom("E", x, y))
		}
	}
	db.Schema().Add("E", 2)
	db.Schema().Add("P", 1)
	return db
}

// Property: Yannakakis agrees with the generic backtracking evaluator
// on random acyclic queries and random databases.
func TestAgreesWithNaiveEvaluationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		q := randomAcyclicQuery(r)
		db := randomDB(r, 3+r.Intn(15))
		fast, err := Evaluate(q, db)
		if err != nil {
			t.Fatalf("trial %d: %v (query %s)", trial, err, q)
		}
		slow := hom.Evaluate(q, db)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: |fast|=%d |slow|=%d\nq=%s\ndb=%s\nfast=%v\nslow=%v",
				trial, len(fast), len(slow), q, db, fast, slow)
		}
		for i := range fast {
			for j := range fast[i] {
				if fast[i][j] != slow[i][j] {
					t.Fatalf("trial %d: tuple %d differs: %v vs %v (q=%s)", trial, i, fast[i], slow[i], q)
				}
			}
		}
	}
}
