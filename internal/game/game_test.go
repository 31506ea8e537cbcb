package game

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func edge(a, b string) instance.Atom {
	return instance.NewAtom("E", term.Const(a), term.Const(b))
}

// covers is Covers without cancellation, failing the test on error.
func covers(t *testing.T, pattern []instance.Atom, ptuple []term.Term, db *instance.Instance, ttuple []term.Term) bool {
	t.Helper()
	ok, err := Covers(pattern, ptuple, db, ttuple, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// holds reports whether the Boolean game holds on (q) versus (db).
func holds(t *testing.T, q *cq.CQ, db *instance.Instance) bool {
	t.Helper()
	return covers(t, q.Atoms, nil, db, nil)
}

func TestGameAgreesWithHomOnAcyclicQueries(t *testing.T) {
	db := instance.MustFromAtoms(edge("a", "b"), edge("b", "c"), edge("b", "d"))
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
	if !covers(t, q.Atoms, q.Free, db, []term.Term{term.Const("a"), term.Const("c")}) {
		t.Error("game missed (a,c)")
	}
	if covers(t, q.Atoms, q.Free, db, []term.Term{term.Const("c"), term.Const("a")}) {
		t.Error("game accepted (c,a)")
	}
	if !holds(t, cq.MustParse("q :- E(x,y)."), db) {
		t.Error("Boolean game false")
	}
	if holds(t, cq.MustParse("q :- E(x,x)."), db) {
		t.Error("loop query true on loop-free graph")
	}
}

func TestGameOverapproximatesOnCyclicQueries(t *testing.T) {
	// A directed 6-cycle contains no triangle, but locally every edge
	// extends, so the duplicator survives the 1-cover game.
	db := instance.New()
	for i := 0; i < 6; i++ {
		db.Add(edge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%6)))
	}
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	if hom.EvaluateBool(tri, db) {
		t.Fatal("C6 should not contain a directed triangle")
	}
	if !holds(t, tri, db) {
		t.Error("1-cover game should overapproximate the triangle on C6")
	}
}

func TestGameRespectsConstants(t *testing.T) {
	db := instance.MustFromAtoms(edge("a", "b"))
	q := cq.MustParse("q :- E('a',y).")
	if !holds(t, q, db) {
		t.Error("constant-anchored query false")
	}
	q2 := cq.MustParse("q :- E('zzz',y).")
	if holds(t, q2, db) {
		t.Error("missing constant matched")
	}
}

func TestGameRespectsRepeatedTupleElements(t *testing.T) {
	db := instance.MustFromAtoms(edge("a", "b"))
	q := cq.MustParse("q(x,y) :- E(x,y).")
	// Tuple (a,a) requires x and y to map to the same element — no.
	if covers(t, q.Atoms, q.Free, db, []term.Term{term.Const("a"), term.Const("a")}) {
		t.Error("accepted mismatched repeated pin")
	}
	// Pattern side repeats: q(x,x) against tuple (a,b) must fail fast.
	q2 := cq.MustParse("q(x,x2) :- E(x,x2), E(x2,x).")
	if covers(t, q2.Atoms, q2.Free, db, []term.Term{term.Const("a"), term.Const("b")}) {
		t.Error("accepted impossible cycle pin")
	}
}

func TestGameRigidConstantPin(t *testing.T) {
	// A rigid constant in the pinned tuple can only be its own image:
	// this arises when an egd chase equates a head coordinate with a
	// query constant and the caller pins the merged (constant) term.
	// Found by FuzzMethodAgreement (seed egd-pinned-head-coordinate).
	db := instance.MustFromAtoms(edge("a", "a"), edge("b", "a"))
	pattern := []instance.Atom{edge("a", "a")}
	pinned := []term.Term{term.Const("a")}
	if !covers(t, pattern, pinned, db, []term.Term{term.Const("a")}) {
		t.Error("identity pin on a rigid constant rejected")
	}
	if covers(t, pattern, pinned, db, []term.Term{term.Const("b")}) {
		t.Error("pin mapped a rigid constant to a different element")
	}
}

func TestGameArityMismatch(t *testing.T) {
	db := instance.MustFromAtoms(edge("a", "b"))
	q := cq.MustParse("q(x) :- E(x,y).")
	if covers(t, q.Atoms, q.Free, db, []term.Term{term.Const("a"), term.Const("b")}) {
		t.Error("tuple arity mismatch accepted")
	}
}

func TestGameEmptyPattern(t *testing.T) {
	db := instance.MustFromAtoms(edge("a", "b"))
	if !covers(t, nil, nil, db, nil) {
		t.Error("empty pattern should be covered")
	}
}

func TestEvaluateMatchesHomOnAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	consts := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		db := instance.New()
		for i := 0; i < 4+r.Intn(12); i++ {
			db.Add(edge(consts[r.Intn(len(consts))], consts[r.Intn(len(consts))]))
		}
		queries := []string{
			"q(x) :- E(x,y).",
			"q(x,z) :- E(x,y), E(y,z).",
			"q(x) :- E(x,y), E(x,z).",
			"q :- E(x,y), E(y,z).",
		}
		q := cq.MustParse(queries[r.Intn(len(queries))])
		want := hom.Evaluate(q, db)
		got, err := Evaluate(q.Atoms, q.Free, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sortTuples(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d answers, want %d (q=%s db=%s)\n%v\n%v",
				trial, len(got), len(want), q, db, got, want)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: answers differ at %d: %v vs %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func sortTuples(ts [][]term.Term) {
	key := func(tp []term.Term) string {
		s := ""
		for _, t := range tp {
			s += t.Name + "\x00"
		}
		return s
	}
	sort.Slice(ts, func(i, j int) bool { return key(ts[i]) < key(ts[j]) })
}

// TestGameSoundness: the game never rejects a tuple that a genuine
// homomorphism certifies (Proposition 30 direction), on arbitrary
// (including cyclic) queries.
func TestGameSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	consts := []string{"a", "b", "c"}
	queries := []*cq.CQ{
		cq.MustParse("q :- E(x,y), E(y,z), E(z,x)."),
		cq.MustParse("q(x) :- E(x,y), E(y,x)."),
		cq.MustParse("q(x,w) :- E(x,y), E(y,w), E(x,w)."),
	}
	for trial := 0; trial < 150; trial++ {
		db := instance.New()
		for i := 0; i < 3+r.Intn(10); i++ {
			db.Add(edge(consts[r.Intn(len(consts))], consts[r.Intn(len(consts))]))
		}
		q := queries[r.Intn(len(queries))]
		for _, ans := range hom.Evaluate(q, db) {
			if !covers(t, q.Atoms, q.Free, db, ans) {
				t.Fatalf("game rejected certified answer %v of %s on %s", ans, q, db)
			}
		}
	}
}
