package hom

// Concurrency test for the enumerator: evaluations of one query over
// one shared target from concurrent read-only goroutines agree (CI
// runs this under -race).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
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

// TestInternedCandidatesConcurrent: 1, 4 and 8 goroutines evaluating
// over one shared target get identical answers; the race detector
// checks that candidate selection only reads the target's indexes.
func TestInternedCandidatesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	q := randomHomCQ(r)
	db := gen.RandomGraphDB(r, 300, 12)
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
