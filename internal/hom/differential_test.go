package hom

// Differential tests for the interned candidate pre-filter: enumeration
// through the columnar sorted runs must produce the same answer sets as
// the ByPred/ByPos map path, sequentially (a view-cached instance
// against a view-less clone) and from concurrent read-only goroutines
// (CI runs this under -race).

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// randomHomCQ builds a possibly-cyclic query with occasional constants
// and up to two free variables — the general backtracking workload.
func randomHomCQ(r *rand.Rand) *cq.CQ {
	base := gen.RandomCQ(r, 2+r.Intn(4), 2+r.Intn(4), []string{"E"})
	if r.Intn(3) == 0 {
		vars := base.Vars()
		sub := term.NewSubst()
		sub[vars[r.Intn(len(vars))]] = term.Const(fmt.Sprintf("c%d", r.Intn(6)))
		base = base.ApplySubst(sub)
	}
	var free []term.Term
	for _, x := range base.Vars() {
		if len(free) < 2 && r.Intn(3) == 0 {
			free = append(free, x)
		}
	}
	return cq.MustNew(free, base.Atoms)
}

func eqAnswers(a, b [][]term.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// enumerate collects every homomorphism of q into target through
// Enumerate, which never builds an interned view: it takes the interned
// path exactly when target already has one cached.
func enumerate(q *cq.CQ, target *instance.Instance) []string {
	vars := q.Vars()
	var out []string
	Enumerate(q.Atoms, target, nil, func(s term.Subst) bool {
		out = append(out, fmt.Sprint(s.ResolveTuple(vars)))
		return true
	})
	sort.Strings(out)
	return out
}

// TestDifferentialInternedCandidates: enumeration with the interned
// candidate probe (view force-built, so the path runs even below the
// size threshold) finds the same homomorphisms as a view-less clone of
// the same database on the map path, on random queries and databases.
func TestDifferentialInternedCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nonEmpty := 0
	for trial := 0; trial < 60; trial++ {
		q := randomHomCQ(r)
		db := gen.RandomGraphDB(r, 40+r.Intn(250), 3+r.Intn(10))
		plain := db.Clone()
		db.Interned() // force the columnar view regardless of size

		got := enumerate(q, db)
		want := enumerate(q, plain)
		if plain.InternedCached() != nil {
			t.Fatalf("trial %d: Enumerate built an interned view on the map-path clone", trial)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: query %s\ninterned: %v\nmap path: %v", trial, q, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	// Guard against a generator drift that would make every trial
	// vacuously compare empty answer sets.
	if nonEmpty < 15 {
		t.Fatalf("only %d/60 trials had nonempty answers; workload too vacuous", nonEmpty)
	}
}

// TestInternedCandidatesConcurrent: 1, 4 and 8 goroutines evaluating
// over one shared interned view get identical answers; the race
// detector checks the view is read-only after its build.
func TestInternedCandidatesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	q := randomHomCQ(r)
	db := gen.RandomGraphDB(r, 300, 12)
	db.Interned()
	want := Evaluate(q, db)
	for _, workers := range []int{1, 4, 8} {
		got := make([][][]term.Term, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = Evaluate(q, db)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if !eqAnswers(got[w], want) {
				t.Fatalf("workers=%d worker %d: answers diverge", workers, w)
			}
		}
	}
}
