package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func sameTuples(a, b [][]term.Term) bool {
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

// TestExecuteIncrementalMatchesExecute: a plan re-evaluated through
// ExecuteIncremental after each ApplyDelta batch returns exactly the
// answers Execute produces from scratch, with the state threading
// epoch to epoch.
func TestExecuteIncrementalMatchesExecute(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
		p, err := CompilePlan(q, &deps.Set{}, Options{}, "")
		if err != nil {
			t.Fatalf("trial %d: CompilePlan: %v", trial, err)
		}
		if !p.Incremental() {
			t.Fatalf("trial %d: acyclic plan should be incremental", trial)
		}
		db := gen.RandomGraphDB(r, 60+r.Intn(120), 3+r.Intn(8))

		ans, st, state, err := p.ExecuteIncremental(db, nil, EvalOptions{})
		if err != nil {
			t.Fatalf("trial %d: cold ExecuteIncremental: %v", trial, err)
		}
		if state == nil || state.Epoch != db.Epoch() {
			t.Fatalf("trial %d: cold state %+v, epoch %d", trial, state, db.Epoch())
		}
		if st.TreesRecomputed != 0 || st.TreesRepaired != 0 || st.TreesReused != 0 {
			t.Fatalf("trial %d: cold run should leave delta stats 0, got %s", trial, st.Fingerprint())
		}
		want, _, err := p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}
		if !sameTuples(ans, want) {
			t.Fatalf("trial %d: cold incremental answers diverge", trial)
		}

		for step := 0; step < 5; step++ {
			ins, del := gen.RandomDelta(r, db, r.Intn(4), r.Intn(2))
			if _, err := db.ApplyDelta(ins, del); err != nil {
				t.Fatalf("trial %d step %d: ApplyDelta: %v", trial, step, err)
			}
			ans, st, next, err := p.ExecuteIncremental(db, state, EvalOptions{})
			if err != nil {
				t.Fatalf("trial %d step %d: ExecuteIncremental: %v", trial, step, err)
			}
			want, _, err := p.Execute(db, EvalOptions{})
			if err != nil {
				t.Fatalf("trial %d step %d: Execute: %v", trial, step, err)
			}
			if !sameTuples(ans, want) {
				t.Fatalf("trial %d step %d: incremental answers diverge\ndelta +%v -%v\ngot  %v\nwant %v",
					trial, step, ins, del, ans, want)
			}
			if st.Answers != len(want) {
				t.Fatalf("trial %d step %d: Answers = %d, want %d", trial, step, st.Answers, len(want))
			}
			state = next
		}

		// A bare mutation rebuilds the view: the next incremental run
		// must fall back to a full recompute and still be correct.
		db.Add(instance.NewAtom("E", term.Const("zz1"), term.Const("zz2")))
		ans, st, state, err = p.ExecuteIncremental(db, state, EvalOptions{})
		if err != nil {
			t.Fatalf("trial %d: post-bare ExecuteIncremental: %v", trial, err)
		}
		want, _, err = p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatalf("trial %d: post-bare Execute: %v", trial, err)
		}
		if !sameTuples(ans, want) {
			t.Fatalf("trial %d: post-bare answers diverge", trial)
		}
		if st.TreesRecomputed == 0 {
			t.Fatalf("trial %d: bare mutation should force recompute, got %s", trial, st.Fingerprint())
		}
		if state == nil || state.Epoch != db.Epoch() {
			t.Fatalf("trial %d: post-bare state not rebuilt", trial)
		}
	}
}

// TestExecuteIncrementalAnswersNotShared: writing to the slice
// ExecuteIncremental returns must not reach the reducer state, so the
// next run, which reuses that state, still returns the true answers —
// for a single answer (a true Boolean plan) and for many.
func TestExecuteIncrementalAnswersNotShared(t *testing.T) {
	db := gen.RandomGraphDB(rand.New(rand.NewSource(7)), 80, 6)
	for _, src := range []string{"q :- E(x,y), E(y,z).", "q(x,z) :- E(x,y), E(y,z)."} {
		p, err := CompilePlan(cq.MustParse(src), &deps.Set{}, Options{}, "")
		if err != nil {
			t.Fatalf("%s: CompilePlan: %v", src, err)
		}
		want, _, err := p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatalf("%s: Execute: %v", src, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: fixture has no answers", src)
		}
		state := (*ReducerState)(nil)
		for run := 0; run < 3; run++ {
			ans, st, next, err := p.ExecuteIncremental(db, state, EvalOptions{})
			if err != nil {
				t.Fatalf("%s run %d: ExecuteIncremental: %v", src, run, err)
			}
			if run > 0 && st.TreesReused != int64(p.compiled.NumTrees()) {
				t.Fatalf("%s run %d: want a reuse run, got %s", src, run, st.Fingerprint())
			}
			if !sameTuples(ans, want) {
				t.Fatalf("%s run %d: answers %v, want %v", src, run, ans, want)
			}
			ans[0] = []term.Term{term.Const("mutated")}
			state = next
		}
	}
}

// TestExecuteIncrementalNonIncrementalMethod: generic plans run
// through ExecuteIncremental recompute every time and return no state.
func TestExecuteIncrementalNonIncrementalMethod(t *testing.T) {
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	p, err := CompilePlan(q, &deps.Set{}, Options{}, MethodGeneric)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	if p.Incremental() {
		t.Fatal("generic plan must not report incremental")
	}
	db := gen.RandomGraphDB(rand.New(rand.NewSource(5)), 40, 4)
	ans, _, state, err := p.ExecuteIncremental(db, nil, EvalOptions{})
	if err != nil {
		t.Fatalf("ExecuteIncremental: %v", err)
	}
	if state != nil {
		t.Fatalf("generic plan returned state %+v", state)
	}
	want, _, err := p.Execute(db, EvalOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !sameTuples(ans, want) {
		t.Fatal("generic incremental answers diverge from Execute")
	}
}

// TestExecuteIncrementalDeterminism: the same instance build + delta
// script replayed from scratch yields byte-identical stats
// fingerprints at every step, including when each step's evaluation
// runs from several concurrent goroutines sharing the plan and state.
func TestExecuteIncrementalDeterminism(t *testing.T) {
	q := cq.MustParse("q(x,z) :- E(x,y), E(y,z), P(z).")
	p, err := CompilePlan(q, &deps.Set{}, Options{}, "")
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}

	replay := func(parallelism int) []string {
		r := rand.New(rand.NewSource(77))
		db := gen.RandomGraphDB(r, 120, 6)
		_, _, state, err := p.ExecuteIncremental(db, nil, EvalOptions{})
		if err != nil {
			t.Fatalf("cold run: %v", err)
		}
		var fps []string
		for step := 0; step < 6; step++ {
			ins, del := gen.RandomDelta(r, db, r.Intn(5), r.Intn(2))
			if _, err := db.ApplyDelta(ins, del); err != nil {
				t.Fatalf("step %d: ApplyDelta: %v", step, err)
			}
			results := make([]string, parallelism)
			states := make([]*ReducerState, parallelism)
			var wg sync.WaitGroup
			for g := 0; g < parallelism; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, st, next, err := p.ExecuteIncremental(db, state, EvalOptions{})
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
					t.Fatalf("step %d: goroutine %d fingerprint %q != %q", step, g, results[g], results[0])
				}
			}
			if states[0] == nil {
				t.Fatalf("step %d: %s", step, results[0])
			}
			fps = append(fps, results[0])
			state = states[0]
		}
		return fps
	}

	base := replay(1)
	for _, par := range []int{1, 4, 8} {
		got := replay(par)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d step %d: fingerprint %q != %q", par, i, got[i], base[i])
			}
		}
	}
}

// TestExecuteOverlayMatchesMaterialized: overlay evaluation equals
// Execute on the materialized overlay, for both the interned
// Yannakakis path and the materializing generic path, and leaves the
// base instance's answers untouched.
func TestExecuteOverlayMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for _, method := range []string{"", MethodGeneric} {
		for trial := 0; trial < 10; trial++ {
			q := cq.MustParse("q(x,z) :- E(x,y), E(y,z).")
			p, err := CompilePlan(q, &deps.Set{}, Options{}, method)
			if err != nil {
				t.Fatalf("method %q trial %d: CompilePlan: %v", method, trial, err)
			}
			db := gen.RandomGraphDB(r, 50+r.Intn(100), 3+r.Intn(6))
			baseWant, _, err := p.Execute(db, EvalOptions{})
			if err != nil {
				t.Fatalf("method %q trial %d: Execute(base): %v", method, trial, err)
			}

			ins, del := gen.RandomDelta(r, db, 1+r.Intn(4), r.Intn(3))
			ov, err := db.NewOverlay(ins, del)
			if err != nil {
				t.Fatalf("method %q trial %d: NewOverlay: %v", method, trial, err)
			}
			got, st, err := p.ExecuteOverlay(ov, EvalOptions{})
			if err != nil {
				t.Fatalf("method %q trial %d: ExecuteOverlay: %v", method, trial, err)
			}
			mat, err := ov.Materialize()
			if err != nil {
				t.Fatalf("method %q trial %d: Materialize: %v", method, trial, err)
			}
			want, _, err := p.Execute(mat, EvalOptions{})
			if err != nil {
				t.Fatalf("method %q trial %d: Execute(materialized): %v", method, trial, err)
			}
			if !sameTuples(got, want) {
				t.Fatalf("method %q trial %d: overlay answers diverge\ngot  %v\nwant %v",
					method, trial, got, want)
			}
			if st.Answers != len(want) {
				t.Fatalf("method %q trial %d: Answers = %d, want %d", method, trial, st.Answers, len(want))
			}

			baseAgain, _, err := p.Execute(db, EvalOptions{})
			if err != nil {
				t.Fatalf("method %q trial %d: Execute(base again): %v", method, trial, err)
			}
			if !sameTuples(baseAgain, baseWant) {
				t.Fatalf("method %q trial %d: overlay evaluation disturbed the base", method, trial)
			}
		}
	}
}
