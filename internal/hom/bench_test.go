package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func benchDB(size, domain int) *instance.Instance {
	r := rand.New(rand.NewSource(1))
	db := instance.New()
	for i := 0; i < size; i++ {
		db.Add(instance.NewAtom("E",
			term.Const(fmt.Sprintf("c%d", r.Intn(domain))),
			term.Const(fmt.Sprintf("c%d", r.Intn(domain)))))
	}
	return db
}

func BenchmarkEvaluatePath3(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(q, db)
	}
}

func BenchmarkEvaluateBoolTriangle(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateBool(q, db)
	}
}

func BenchmarkCore8Atoms(b *testing.B) {
	q := cq.MustParse("q :- E(a,b), E(b,c), E(c,d), E(a,e), E(e,f), E(a,g), E(g,h), E(h,b).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Core(q)
	}
}

func BenchmarkContainment(b *testing.B) {
	q := cq.MustParse("q(x) :- E(x,y), E(y,z), E(z,w), E(w,v).")
	qp := cq.MustParse("q(x) :- E(x,y), E(y,z).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Contained(q, qp) {
			b.Fatal("containment lost")
		}
	}
}

// TestAllocsCandidateProbe is the regression guard for the candidate
// probe: selecting the most selective candidate set for an atom (the
// per-node inner operation of Enumerate) must not allocate — one
// ByPred and one ByPos map probe per pinned position, a by-value
// candSet out — also with an atom read as removed (Core's retraction
// search). The ci.sh `-run 'Allocs'` gate runs this without -race on
// every push.
func TestAllocsCandidateProbe(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	db := benchDB(2000, 200)
	x, y := term.Var("x"), term.Var("y")
	a := instance.NewAtom("E", x, y)
	sub := term.NewSubst()
	sub[x] = term.Const("c7")
	removed := db.ByPos("E", 0, term.Const("c7"))[0]
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		cs := candidates(db, a, sub, instance.Atom{})
		sink += cs.n
		cs = candidates(db, a, sub, removed)
		sink += cs.n + cs.hole
	})
	if allocs != 0 {
		t.Fatalf("candidates allocates %v per op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("probe matched nothing; fixture too sparse to mean anything")
	}
}

// BenchmarkEvaluateAllocsPath3 measures the full evaluation pipeline's
// allocation profile: matches bind through one undo stack, answer dedup
// probes a reused id buffer, and the final sort compares tuples with
// term.CompareTuples instead of building keys.
func BenchmarkEvaluateAllocsPath3(b *testing.B) {
	db := benchDB(2000, 200)
	q := cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w).")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(q, db)
	}
}

// TestAllocsEnumerateBacktrack guards the undo stack of Enumerate: the
// allocations of one enumeration over a fixed pattern must not grow
// with the number of successful matches. A 10x larger target yields
// about 10x the homomorphisms; only a constant may separate the two
// allocation counts.
func TestAllocsEnumerateBacktrack(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	pattern := []instance.Atom{
		instance.NewAtom("E", term.Var("x"), term.Var("y")),
		instance.NewAtom("E", term.Var("y"), term.Var("z")),
	}
	measure := func(size int) (allocs float64, matches int) {
		db := benchDB(size, size/10)
		allocs = testing.AllocsPerRun(20, func() {
			matches = 0
			Enumerate(pattern, db, nil, func(term.Subst) bool {
				matches++
				return true
			})
		})
		return allocs, matches
	}
	small, nSmall := measure(200)
	big, nBig := measure(2000)
	if nBig < 5*nSmall {
		t.Fatalf("fixture too flat: %d vs %d matches", nSmall, nBig)
	}
	t.Logf("%v allocs for %d matches, %v for %d", small, nSmall, big, nBig)
	if big > small+8 {
		t.Fatalf("Enumerate allocates %v for %d matches but %v for %d: allocations grow with matches",
			small, nSmall, big, nBig)
	}
}
