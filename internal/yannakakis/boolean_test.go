package yannakakis

// Property test for Boolean plans, which stop after the bottom-up
// semijoin pass: on random acyclic Boolean queries (disconnected
// forests, unary atoms, constants in and out of the domain) over random
// graph databases, the answer is hom's, no join row is materialized,
// exactly one semijoin runs per forest edge, and ExecuteDelta over
// insert-only and delete batches agrees with a fresh ExecuteState.

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
)

// randomBooleanCQ joins one to three random acyclic trees over disjoint
// variables, hangs up to two unary P atoms on variables (ears, so the
// query stays acyclic), and may pin a variable to a constant drawn
// from slightly beyond the database domain.
func randomBooleanCQ(r *rand.Rand, domain int) *cq.CQ {
	var atoms []instance.Atom
	for tree := 0; tree < 1+r.Intn(3); tree++ {
		q := gen.RandomAcyclicCQ(r, 1+r.Intn(4), []string{"E"})
		apart := term.NewSubst()
		for _, x := range q.Vars() {
			apart[x] = term.Var(fmt.Sprintf("%s_%d", x.Name, tree))
		}
		atoms = append(atoms, q.ApplySubst(apart).Atoms...)
	}
	vars := cq.MustNew(nil, atoms).Vars()
	for k := r.Intn(3); k > 0; k-- {
		atoms = append(atoms, instance.NewAtom("P", vars[r.Intn(len(vars))]))
	}
	q := cq.MustNew(nil, atoms)
	if r.Intn(2) == 0 {
		pin := term.NewSubst()
		pin[vars[r.Intn(len(vars))]] = term.Const(fmt.Sprintf("c%d", r.Intn(domain+2)))
		q = q.ApplySubst(pin)
	}
	return q
}

// checkBooleanRun checks one Boolean run's answers against hom and its
// join count against the Boolean stop's rule. Full runs (edges >= 0)
// also run exactly one semijoin per forest edge; a delta repair
// (edges < 0) reduces each tree once per contributing delta term.
func checkBooleanRun(t *testing.T, label string, q *cq.CQ, edges int, db *instance.Instance, ans [][]term.Term, st *obs.EvalStats) {
	t.Helper()
	want := hom.EvaluateBool(q, db)
	if got := len(ans) > 0; got != want {
		t.Fatalf("%s: query %s holds = %v, hom says %v", label, q, got, want)
	}
	if want && (len(ans) != 1 || len(ans[0]) != 0) {
		t.Fatalf("%s: query %s answers %v, want one empty tuple", label, q, ans)
	}
	if st.JoinRows != 0 {
		t.Fatalf("%s: query %s materialized %d join rows, want 0", label, q, st.JoinRows)
	}
	if edges >= 0 && st.Semijoins != int64(edges) {
		t.Fatalf("%s: query %s ran %d semijoins, want one per forest edge (%d)", label, q, st.Semijoins, edges)
	}
}

// TestBooleanPlanProperty drives the Boolean stop through Execute,
// ExecuteState and ExecuteDelta.
func TestBooleanPlanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var holds, fails, forests, repaired, recomputed int
	for trial := 0; trial < 60; trial++ {
		domain := 2 + r.Intn(16)
		q := randomBooleanCQ(r, domain)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: generated query %s is not acyclic", trial, q)
		}
		edges := 0
		for _, p := range forest.Parent {
			if p >= 0 {
				edges++
			}
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		if c.NumTrees() > 1 {
			forests++
		}
		db := gen.RandomGraphDB(r, 5+r.Intn(80), domain)

		var st obs.EvalStats
		ans, err := c.Execute(db, Options{Stats: &st})
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d", trial)
		checkBooleanRun(t, label, q, edges, db, ans, &st)

		_, state, err := c.ExecuteState(db, Options{})
		if err != nil {
			t.Fatalf("%s: ExecuteState: %v", label, err)
		}
		epoch := db.Epoch()
		for step := 0; step < 5; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			nIns, nDel := 1+r.Intn(4), 0
			if step%2 == 1 {
				nIns, nDel = r.Intn(2), 1+r.Intn(3)
			}
			ins, del := gen.RandomDelta(r, db, nIns, nDel)
			res, err := db.ApplyDelta(ins, del)
			if err != nil {
				t.Fatalf("%s: ApplyDelta: %v", label, err)
			}
			deltas, ok := db.DeltaSince(epoch)
			if !ok {
				t.Fatalf("%s: DeltaSince(%d) not bridgeable", label, epoch)
			}
			var dst obs.EvalStats
			got, next, err := c.ExecuteDelta(state, db, deltas, Options{Stats: &dst})
			if err != nil {
				t.Fatalf("%s: ExecuteDelta: %v", label, err)
			}
			checkBooleanRun(t, label+" (delta)", q, -1, db, got, &dst)
			var fst obs.EvalStats
			fresh, freshState, err := c.ExecuteState(db, Options{Stats: &fst})
			if err != nil {
				t.Fatalf("%s: ExecuteState: %v", label, err)
			}
			checkBooleanRun(t, label+" (fresh)", q, edges, db, fresh, &fst)
			if len(fresh) > 0 {
				holds++
			} else {
				fails++
			}
			if !sameAnswers(got, fresh) {
				t.Fatalf("%s: query %s delta answers %v, fresh %v (+%v -%v)", label, q, got, fresh, ins, del)
			}
			if !sameAnswers(next.Answers(), freshState.Answers()) {
				t.Fatalf("%s: query %s retained answers %v, fresh state's %v", label, q, next.Answers(), freshState.Answers())
			}
			repaired += int(dst.TreesRepaired)
			recomputed += int(dst.TreesRecomputed)
			state, epoch = next, res.Epoch
		}
	}
	t.Logf("holds=%d fails=%d forests=%d repaired=%d recomputed=%d", holds, fails, forests, repaired, recomputed)
	// Guard against generator drift making the property vacuous.
	if holds < 40 || fails < 40 || forests < 10 || repaired == 0 || recomputed == 0 {
		t.Fatalf("coverage too thin: holds=%d fails=%d forests=%d repaired=%d recomputed=%d",
			holds, fails, forests, repaired, recomputed)
	}
}
