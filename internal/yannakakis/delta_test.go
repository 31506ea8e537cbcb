package yannakakis

// Differential tests for the incremental evaluator: ExecuteDelta over
// a delta sequence must agree answer-for-answer with a full Execute on
// the current instance at every step, its deterministic stats must
// fingerprint identically across independent replays of the same
// sequence, and a shared ReducerState must be safe to repair from
// concurrent goroutines (CI runs this file under -race).

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// deltaStep is one batch of a delta script.
type deltaStep struct {
	ins, del []instance.Atom
}

// TestDeltaUnionDedup: the union of a repair's contribution into the
// cached projection keeps acc's rows in order, appends each row acc
// lacks once, in contribution order, and never writes acc's backing
// array, which an older ReducerState may share.
func TestDeltaUnionDedup(t *testing.T) {
	accIDs := []symtab.ID{1, 2, 3, 4, 5, 6, 99, 99}
	acc := irel{w: 2, n: 3, ids: accIDs[:6]}
	contrib := irel{w: 2, n: 5, ids: []symtab.ID{7, 8, 1, 2, 7, 8, 5, 6, 9, 9}}
	out := dedupUnion(acc, contrib)
	want := []symtab.ID{1, 2, 3, 4, 5, 6, 7, 8, 9, 9}
	if out.w != 2 || out.n != 5 || !slices.Equal(out.ids, want) {
		t.Fatalf("union = %d rows %v, want 5 rows %v", out.n, out.ids, want)
	}
	if !slices.Equal(accIDs, []symtab.ID{1, 2, 3, 4, 5, 6, 99, 99}) {
		t.Fatalf("union wrote acc's backing array: %v", accIDs)
	}
}

// TestDifferentialDeltaVsFull drives random delta sequences against
// random instances and checks every incremental answer set against a
// from-scratch evaluation of the same plan on the current atoms. All
// three per-tree decisions (reuse, repair, recompute) must be
// exercised across the run.
func TestDifferentialDeltaVsFull(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var reused, repaired, recomputed int64
	for trial := 0; trial < 40; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: generated query %s is not acyclic", trial, q)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		db := gen.RandomGraphDB(r, 40+r.Intn(200), 2+r.Intn(10))

		ans, state, err := c.ExecuteState(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: ExecuteState: %v", trial, err)
		}
		full, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}
		if !sameAnswers(ans, full) {
			t.Fatalf("trial %d: ExecuteState answers diverge from Execute", trial)
		}

		for step := 0; step < 6; step++ {
			nIns := r.Intn(4)
			nDel := 0
			if r.Intn(3) == 0 {
				nDel = 1 + r.Intn(2)
			}
			ins, del := gen.RandomDelta(r, db, nIns, nDel)
			if _, err := db.ApplyDelta(ins, del); err != nil {
				t.Fatalf("trial %d step %d: ApplyDelta: %v", trial, step, err)
			}
			var st obs.EvalStats
			got, next, err := c.ExecuteDelta(state, db, Options{Stats: &st})
			if err != nil {
				t.Fatalf("trial %d step %d: ExecuteDelta: %v", trial, step, err)
			}
			want, err := c.Execute(db, Options{})
			if err != nil {
				t.Fatalf("trial %d step %d: Execute: %v", trial, step, err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("trial %d step %d: incremental answers diverge\nquery %s\ndelta +%v -%v\ngot  %v\nwant %v",
					trial, step, q, ins, del, got, want)
			}
			if got2 := next.Answers(); !sameAnswers(got2, want) {
				t.Fatalf("trial %d step %d: state.Answers diverges from answers", trial, step)
			}
			if n := st.TreesReused + st.TreesRepaired + st.TreesRecomputed; n != int64(c.NumTrees()) {
				t.Fatalf("trial %d step %d: decision split %d+%d+%d does not cover %d trees",
					trial, step, st.TreesReused, st.TreesRepaired, st.TreesRecomputed, c.NumTrees())
			}
			reused += st.TreesReused
			repaired += st.TreesRepaired
			recomputed += st.TreesRecomputed
			state = next
		}
	}
	if reused == 0 || repaired == 0 || recomputed == 0 {
		t.Fatalf("decision coverage incomplete: reused=%d repaired=%d recomputed=%d",
			reused, repaired, recomputed)
	}
}

// TestDifferentialDeltaStaleStates repairs states that lag one to four
// batches behind the instance. A gap of two or more batches may insert
// one fresh atom in its first batch and delete it in its last, which
// leaves the atom set as the batches around it made it but the
// relation's rows no longer a prefix; sometimes a bare Add rebuilds the
// view. Answers must equal Execute's, both breaks must recompute every
// tree (the plans read E alone), and reuse, repair and recompute must
// all occur.
func TestDifferentialDeltaStaleStates(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var reused, repaired, recomputed int64
	for trial := 0; trial < 60; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: generated query %s is not acyclic", trial, q)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		db := gen.RandomGraphDB(r, 40+r.Intn(160), 2+r.Intn(10))
		_, state, err := c.ExecuteState(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: ExecuteState: %v", trial, err)
		}
		for round := 0; round < 4; round++ {
			lag := 1 + r.Intn(4)
			var flip []instance.Atom
			if lag >= 2 && r.Intn(2) == 0 {
				f := term.Const(fmt.Sprintf("f%d_%d", trial, round))
				flip = []instance.Atom{instance.NewAtom("P", f)}
				if r.Intn(2) == 0 {
					flip = []instance.Atom{instance.NewAtom("E", f, f)}
				}
			}
			rebuilt := false
			for b := 0; b < lag; b++ {
				nDel := 0
				if r.Intn(4) == 0 {
					nDel = 1
				}
				ins, del := gen.RandomDelta(r, db, r.Intn(3), nDel)
				if b == 0 {
					ins = append(ins, flip...)
				}
				if b == lag-1 {
					del = append(del, flip...)
				}
				if _, err := db.ApplyDelta(ins, del); err != nil {
					t.Fatalf("trial %d round %d batch %d: ApplyDelta: %v", trial, round, b, err)
				}
				if r.Intn(12) == 0 {
					bare := instance.NewAtom("E", term.Const(fmt.Sprintf("c%d", r.Intn(12))), term.Const("bare"))
					added, err := db.AddReport(bare)
					if err != nil {
						t.Fatalf("trial %d round %d: Add: %v", trial, round, err)
					}
					rebuilt = rebuilt || added
				}
			}

			var st obs.EvalStats
			got, next, err := c.ExecuteDelta(state, db, Options{Stats: &st})
			if err != nil {
				t.Fatalf("trial %d round %d: ExecuteDelta: %v", trial, round, err)
			}
			want, err := c.Execute(db, Options{})
			if err != nil {
				t.Fatalf("trial %d round %d: Execute: %v", trial, round, err)
			}
			if !sameAnswers(got, want) || !sameAnswers(next.Answers(), want) {
				t.Fatalf("trial %d round %d (lag %d, flip %v, rebuilt %v): answers diverge\nquery %s\ngot  %v\nwant %v",
					trial, round, lag, flip, rebuilt, q, got, want)
			}
			if n := st.TreesReused + st.TreesRepaired + st.TreesRecomputed; n != int64(c.NumTrees()) {
				t.Fatalf("trial %d round %d: decision split %s does not cover %d trees", trial, round, st.Fingerprint(), c.NumTrees())
			}
			if (rebuilt || len(flip) > 0 && flip[0].Pred == "E") && st.TreesRecomputed != int64(c.NumTrees()) {
				t.Fatalf("trial %d round %d (flip %v, rebuilt %v): want every tree recomputed, got %s",
					trial, round, flip, rebuilt, st.Fingerprint())
			}
			reused += st.TreesReused
			repaired += st.TreesRepaired
			recomputed += st.TreesRecomputed
			state = next
		}
	}
	t.Logf("reused=%d repaired=%d recomputed=%d", reused, repaired, recomputed)
	if reused == 0 || repaired == 0 || recomputed == 0 {
		t.Fatalf("decision coverage incomplete: reused=%d repaired=%d recomputed=%d",
			reused, repaired, recomputed)
	}
}

// TestDeltaFingerprintDeterminism replays one delta sequence against
// two independently built (but identical) instances and requires
// byte-identical EvalStats fingerprints at every step; within one
// replay the repair runs concurrently from several goroutines sharing
// the plan and the state, all of which must observe the same
// fingerprint.
func TestDeltaFingerprintDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: query not acyclic", trial)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}

		seed := r.Int63()
		build := func() (*instance.Instance, []deltaStep) {
			rr := rand.New(rand.NewSource(seed))
			db := gen.RandomGraphDB(rr, 60+rr.Intn(100), 2+rr.Intn(8))
			var script []deltaStep
			probe := db.Clone()
			for i := 0; i < 5; i++ {
				ins, del := gen.RandomDelta(rr, probe, rr.Intn(4), rr.Intn(2))
				if _, err := probe.ApplyDelta(ins, del); err != nil {
					t.Fatalf("trial %d: scripted ApplyDelta: %v", trial, err)
				}
				script = append(script, deltaStep{ins: ins, del: del})
			}
			return db, script
		}

		replay := func(parallelism int) []string {
			db, script := build()
			_, state, err := c.ExecuteState(db, Options{})
			if err != nil {
				t.Fatalf("trial %d: ExecuteState: %v", trial, err)
			}
			var fps []string
			for si, step := range script {
				if _, err := db.ApplyDelta(step.ins, step.del); err != nil {
					t.Fatalf("trial %d step %d: ApplyDelta: %v", trial, si, err)
				}
				results := make([]string, parallelism)
				states := make([]*ReducerState, parallelism)
				var wg sync.WaitGroup
				for g := 0; g < parallelism; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var st obs.EvalStats
						_, next, err := c.ExecuteDelta(state, db, Options{Stats: &st})
						if err != nil {
							results[g] = fmt.Sprintf("error: %v", err)
							return
						}
						results[g] = st.Fingerprint()
						states[g] = next
					}(g)
				}
				wg.Wait()
				for g := 1; g < parallelism; g++ {
					if results[g] != results[0] {
						t.Fatalf("trial %d step %d: goroutine %d fingerprint %q != %q",
							trial, si, g, results[g], results[0])
					}
				}
				fps = append(fps, results[0])
				state = states[0]
				if state == nil {
					t.Fatalf("trial %d step %d: %s", trial, si, results[0])
				}
			}
			return fps
		}

		for _, par := range []int{1, 4, 8} {
			a := replay(par)
			b := replay(par)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d parallelism %d step %d: fingerprint %q != %q on replay",
						trial, par, i, a[i], b[i])
				}
			}
		}
	}
}

// TestDeltaIncompleteStateFallsBack: a run cut short by an empty node
// yields an incomplete state; repairing from it must fall back to a
// full recompute and still produce correct answers once inserts make
// the query satisfiable.
func TestDeltaIncompleteStateFallsBack(t *testing.T) {
	q := cq.MustParse("q(x) :- E(x,y), P(y).")
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		t.Fatal("query not acyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	db := instance.MustFromAtoms(instance.NewAtom("E", term.Const("a"), term.Const("b")))
	db.Schema().Add("P", 1)

	ans, state, err := c.ExecuteState(db, Options{})
	if err != nil {
		t.Fatalf("ExecuteState: %v", err)
	}
	if len(ans) != 0 {
		t.Fatalf("answers = %v, want none (P empty)", ans)
	}

	if _, err := db.ApplyDelta([]instance.Atom{instance.NewAtom("P", term.Const("b"))}, nil); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	var st obs.EvalStats
	got, next, err := c.ExecuteDelta(state, db, Options{Stats: &st})
	if err != nil {
		t.Fatalf("ExecuteDelta: %v", err)
	}
	if len(got) != 1 || got[0][0] != term.Const("a") {
		t.Fatalf("answers = %v, want [[a]]", got)
	}
	if st.TreesRecomputed != int64(c.NumTrees()) {
		t.Fatalf("TreesRecomputed = %d, want %d (incomplete state must recompute)",
			st.TreesRecomputed, c.NumTrees())
	}
	if next == nil || next.incomplete {
		t.Fatalf("recovered state should be complete, got %+v", next)
	}
}

// TestExecuteViewOverlay: evaluating the compiled plan over an
// overlay's patched view equals evaluating over the materialized
// overlay instance — and the base instance's own answers are
// untouched.
func TestExecuteViewOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		q := randomEvalCQ(r)
		forest, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			t.Fatalf("trial %d: query not acyclic", trial)
		}
		c, err := Compile(q, forest)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		db := gen.RandomGraphDB(r, 50+r.Intn(150), 2+r.Intn(8))
		baseWant, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(base): %v", trial, err)
		}

		ins, del := gen.RandomDelta(r, db, 1+r.Intn(4), r.Intn(3))
		ov, err := db.NewOverlay(ins, del)
		if err != nil {
			t.Fatalf("trial %d: NewOverlay: %v", trial, err)
		}
		got, err := c.ExecuteView(ov.Interned(), Options{})
		if err != nil {
			t.Fatalf("trial %d: ExecuteView: %v", trial, err)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatalf("trial %d: Materialize: %v", trial, err)
		}
		want, err := c.Execute(mat, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(materialized): %v", trial, err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("trial %d: overlay answers diverge\ngot  %v\nwant %v", trial, got, want)
		}

		baseAgain, err := c.Execute(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: Execute(base again): %v", trial, err)
		}
		if !sameAnswers(baseAgain, baseWant) {
			t.Fatalf("trial %d: overlay evaluation disturbed the base", trial)
		}
		if ov.Stale() {
			t.Fatalf("trial %d: overlay reported stale without base mutation", trial)
		}
	}
}
