package yannakakis

// Differential tests for the interned hot path: the compiled,
// integer-coded evaluator must agree with the retained string-path
// oracle answer-for-answer and stats-field-for-stats-field on randomly
// generated acyclic queries (with free variables and constants) over
// randomly generated databases — sequentially and from concurrent
// goroutines sharing one Compiled plan (CI runs this file under -race).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// randomEvalCQ derives an evaluation workload from gen's Boolean
// acyclic generator: occasionally pin a variable to a domain constant,
// then promote up to two surviving variables to free (answer) position.
func randomEvalCQ(r *rand.Rand) *cq.CQ {
	base := gen.RandomAcyclicCQ(r, 2+r.Intn(5), []string{"E"})
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

func sameAnswers(a, b [][]term.Term) bool {
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

// TestDifferentialInternedVsOracle: compiled interned evaluation equals
// the string-path oracle — identical answer lists (content and order)
// and identical deterministic stats fingerprints — across random
// acyclic queries and databases.
func TestDifferentialInternedVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nonEmpty := 0
	for trial := 0; trial < 80; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: generated query %s is not acyclic", trial, q)
		}
		db := gen.RandomGraphDB(r, 30+r.Intn(250), 2+r.Intn(12))

		var stO, stI obs.EvalStats
		want, err := EvaluateWithForestOracleOpt(q, forest, db, Options{Stats: &stO})
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}

		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		got, err := c.Execute(db, Options{Stats: &stI})
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}

		if !sameAnswers(got, want) {
			t.Fatalf("trial %d: query %s\ninterned: %v\noracle:   %v", trial, q, got, want)
		}
		if gf, wf := stI.Fingerprint(), stO.Fingerprint(); gf != wf {
			t.Fatalf("trial %d: query %s stats diverge\ninterned: %s\noracle:   %s", trial, q, gf, wf)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	// Guard against a generator drift that would make every trial
	// vacuously compare empty answer sets.
	if nonEmpty < 20 {
		t.Fatalf("only %d/80 trials had nonempty answers; workload too vacuous", nonEmpty)
	}
}

// TestDifferentialConcurrentExecute: one Compiled plan shared by 1, 4
// and 8 goroutines (each round on a fresh database clone, so the lazy
// interned-view build itself runs under contention) produces the same
// answers and deterministic fingerprint from every worker.
func TestDifferentialConcurrentExecute(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	base := gen.RandomAcyclicCQ(r, 4, []string{"E"})
	vars := base.Vars()
	q := cq.MustNew(vars[:2], base.Atoms)
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("generated query is not acyclic")
	}
	master := gen.RandomGraphDB(r, 400, 15)
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatal(err)
	}
	var st0 obs.EvalStats
	want, err := c.Execute(master, Options{Stats: &st0})
	if err != nil {
		t.Fatal(err)
	}
	wantFP := st0.Fingerprint()

	for _, workers := range []int{1, 4, 8} {
		db := master.Clone()
		got := make([][][]term.Term, workers)
		fps := make([]string, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var st obs.EvalStats
				got[w], errs[w] = c.Execute(db, Options{Stats: &st})
				fps[w] = st.Fingerprint()
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("workers=%d worker %d: %v", workers, w, errs[w])
			}
			if !sameAnswers(got[w], want) {
				t.Fatalf("workers=%d worker %d: answers diverge", workers, w)
			}
			if fps[w] != wantFP {
				t.Fatalf("workers=%d worker %d: fingerprint %s, want %s", workers, w, fps[w], wantFP)
			}
		}
	}
}
