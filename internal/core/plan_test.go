package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
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

// randomAnswers draws n tuples of width w from a pool small enough to
// repeat tuples often, with names that exercise the key order's corners
// (empty, prefix and NUL-bearing names, all three kinds).
func randomAnswers(r *rand.Rand, n, w int) [][]term.Term {
	pool := []term.Term{
		term.Const(""), term.Const("a"), term.Const("ab"), term.Const("a\x00"),
		term.Const("a\x00b"), term.NullTerm("a"), term.NullTerm(""), term.Var("b"),
	}
	out := make([][]term.Term, n)
	for i := range out {
		out[i] = make([]term.Term, w)
		for j := range out[i] {
			out[i][j] = pool[r.Intn(len(pool))]
		}
	}
	return out
}

// keySorted is the reference order: deduplicate by the canonical key
// string and sort by it.
func keySorted(ans [][]term.Term) [][]term.Term {
	byKey := map[string][]term.Term{}
	var keys []string
	for _, t := range ans {
		var b []byte
		for _, x := range t {
			b = x.AppendKey(b)
		}
		if _, ok := byKey[string(b)]; !ok {
			byKey[string(b)] = t
			keys = append(keys, string(b))
		}
	}
	sort.Strings(keys)
	out := make([][]term.Term, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// TestCanonicalizeAnswersMatchesKeyOrder: on unsorted input full of
// duplicates — what the game and egd-game paths produce — and on input
// that is already canonical, canonicalizeAnswers equals a dedup and
// sort by the canonical key string.
func TestCanonicalizeAnswersMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		ans := randomAnswers(r, r.Intn(40), r.Intn(4))
		want := keySorted(ans)
		got := canonicalizeAnswers(ans)
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Fatalf("trial %d:\n got %q\nwant %q", trial, got, want)
		}
		if again := canonicalizeAnswers(got); fmt.Sprintf("%q", again) != fmt.Sprintf("%q", want) {
			t.Fatalf("trial %d: canonical input changed:\n got %q\nwant %q", trial, again, want)
		}
	}
}

// TestAllocsCanonicalSorted: answers already in canonical order — what
// Yannakakis and the generic path emit — pass through canonicalizeAnswers
// with no allocation.
func TestAllocsCanonicalSorted(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ans := keySorted(randomAnswers(rand.New(rand.NewSource(4)), 200, 3))
	if len(ans) < 100 {
		t.Fatalf("fixture too small: %d distinct answers", len(ans))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := canonicalizeAnswers(ans); len(got) != len(ans) {
			t.Fatalf("canonical input lost answers: %d of %d", len(got), len(ans))
		}
	})
	if allocs != 0 {
		t.Fatalf("canonicalizeAnswers allocates %v on canonical input, want 0", allocs)
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
