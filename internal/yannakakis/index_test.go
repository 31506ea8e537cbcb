package yannakakis

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// compileExecute compiles an acyclic q over its GYO forest and executes
// it on db with opt.
func compileExecute(t *testing.T, q *cq.CQ, db *instance.Instance, opt Options) ([][]term.Term, error) {
	t.Helper()
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatalf("query %s is cyclic", q)
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatal(err)
	}
	return c.Execute(db, opt)
}

// randomConstQuery is randomAcyclicQuery with constants substituted for
// some non-free variables, so the leaf load has bound positions to
// probe the ByPos indexes with.
func randomConstQuery(r *rand.Rand) *cq.CQ {
	q := randomAcyclicQuery(r)
	free := make(map[term.Term]bool, len(q.Free))
	for _, x := range q.Free {
		free[x] = true
	}
	consts := []string{"a", "b", "c", "d", "e"}
	sub := make(map[term.Term]term.Term)
	atoms := make([]instance.Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		args := make([]term.Term, len(a.Args))
		for j, t := range a.Args {
			if !t.IsConst() && !free[t] {
				if c, ok := sub[t]; ok {
					t = c
				} else if r.Intn(3) == 0 {
					c := term.Const(consts[r.Intn(len(consts))])
					sub[t] = c
					t = c
				}
			}
			args[j] = t
		}
		atoms[i] = instance.NewAtom(a.Pred, args...)
	}
	return cq.MustNew(q.Free, atoms)
}

// Property: the indexed leaf load agrees with the generic backtracking
// evaluator on random constant-bearing acyclic queries, and the index
// never touches more rows than a full per-predicate scan of every atom
// would, counting the rows it skipped as well as the rows it read.
func TestIndexedAgreesWithScanAndNaiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	probed := 0
	for trial := 0; trial < 300; trial++ {
		q := randomConstQuery(r)
		db := randomDB(r, 3+r.Intn(15))
		var st obs.EvalStats
		indexed, err := compileExecute(t, q, db, Options{Stats: &st})
		if err != nil {
			t.Fatalf("trial %d: indexed: %v (query %s)", trial, err, q)
		}
		naive := hom.Evaluate(q, db)
		if len(indexed) != len(naive) {
			t.Fatalf("trial %d: |indexed|=%d |naive|=%d\nq=%s\ndb=%s",
				trial, len(indexed), len(naive), q, db)
		}
		for i := range indexed {
			if fmt.Sprint(indexed[i]) != fmt.Sprint(naive[i]) {
				t.Fatalf("trial %d: tuple %d: indexed %v vs naive %v (q=%s)", trial, i, indexed[i], naive[i], q)
			}
		}
		var scan int64
		for _, a := range q.Atoms {
			scan += int64(len(db.ByPred(a.Pred)))
		}
		if st.RowsScanned+st.IndexSkippedRows > scan {
			t.Fatalf("trial %d: scanned %d + skipped %d rows, full scan %d (q=%s)",
				trial, st.RowsScanned, st.IndexSkippedRows, scan, q)
		}
		if st.IndexHits > st.RowsScanned {
			t.Fatalf("trial %d: %d index hits exceed %d scanned rows (q=%s)", trial, st.IndexHits, st.RowsScanned, q)
		}
		if st.IndexLookups > 0 {
			probed++
		}
	}
	// Guard against a generator drift that would leave the index unused.
	if probed < 100 {
		t.Fatalf("only %d/300 trials probed an index; workload too constant-free", probed)
	}
}

// A selective constant cuts the leaf load to the matching rows and the
// stats say so.
func TestIndexStatsSelective(t *testing.T) {
	db := instance.New()
	for i := 0; i < 100; i++ {
		if err := db.Add(instance.NewAtom("R", term.Const(fmt.Sprintf("g%d", i%10)), term.Const(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParse("q(x) :- R('g3',x).")
	var st obs.EvalStats
	ans, err := compileExecute(t, q, db, Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 10 {
		t.Fatalf("answers = %d, want 10", len(ans))
	}
	if st.RowsScanned != 10 || st.IndexHits != 10 || st.IndexSkippedRows != 90 {
		t.Fatalf("stats = %+v, want scanned=10 hits=10 skipped=90", st)
	}
	if st.IndexLookups != 1 {
		t.Fatalf("IndexLookups = %d, want 1", st.IndexLookups)
	}
}

// A pre-closed cancel channel aborts the evaluation with ErrCancelled.
func TestEvaluateCancelPreClosed(t *testing.T) {
	db := instance.New()
	for i := 0; i < 3*cancelCheckRows; i++ {
		if err := db.Add(instance.NewAtom("E", term.Const(fmt.Sprintf("a%d", i)), term.Const(fmt.Sprintf("a%d", i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParse("q(x,y) :- E(x,y).")
	cancel := make(chan struct{})
	close(cancel)
	if _, err := compileExecute(t, q, db, Options{Cancel: cancel}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}
