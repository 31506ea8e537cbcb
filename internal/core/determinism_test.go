package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
)

// TestItoaSigned: the enumerator's allocation-obvious itoa must agree
// with strconv.Itoa on the full signed range, including the extremes
// where negation overflows.
func TestItoaSigned(t *testing.T) {
	for _, n := range []int{0, 1, 7, 10, 42, 305, 99999, -1, -9, -10, -305, -100000, math.MaxInt, math.MinInt} {
		if got, want := itoa(n), strconv.Itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

// determinismCorpus pairs queries from internal/gen with dependency
// sets across the paper's classes. Each case runs every decision layer;
// several are cyclic with no small witness, driving the layer-4
// enumerator to exhaustion — the scheduling-sensitive path.
func determinismCorpus() []struct {
	name string
	q    *cq.CQ
	set  *deps.Set
} {
	r := rand.New(rand.NewSource(7))
	return []struct {
		name string
		q    *cq.CQ
		set  *deps.Set
	}{
		{"triangle-selfloop", cq.MustParse("q :- E(x,y), E(y,z), E(z,x)."), deps.MustParse("E(x,y) -> E(x,x).")},
		{"triangle-symmetric", cq.MustParse("q :- E(x,y), E(y,z), E(z,x)."), deps.MustParse("E(x,y) -> E(y,x).")},
		{"cycle4-selfloop", gen.CycleCQ(4), deps.MustParse("E(x,y) -> E(x,x).")},
		{"clique3-free", cq.MustParse("q(x) :- E(x,y), E(y,z), E(z,x), P(x)."), deps.MustParse("E(x,y) -> P(x).")},
		{"example1", gen.Example1Query(), gen.Example1TGD()},
		{"example4-key", gen.Example4Query(), gen.Example4Key()},
		{"random-guarded", gen.CycleCQ(3), gen.RandomGuarded(r, 3, 2)},
		{"random-inclusion", gen.CycleCQ(3), gen.RandomInclusionDeps(r, 3, 2)},
	}
}

// fingerprintResult reduces a decision to the fields that must be
// scheduling-independent. Witnesses are compared by canonical form
// (renaming-invariant), which is what "the same witness" means: chase
// null numbering is process-global state, so raw variable names can
// differ across runs even sequentially.
func fingerprintResult(res *Result) string {
	w := "<none>"
	if res.Witness != nil {
		w = res.Witness.CanonicalKey()
	}
	return fmt.Sprintf("verdict=%s definitive=%v witness=%s", res.Verdict, res.Definitive, w)
}

// TestDecideDeterministicAcrossParallelism: Decide must produce an
// identical verdict and canonical witness for -j 1, 4 and 8 across the
// corpus. Run under -race this also exercises the parallel search's
// synchronization.
func TestDecideDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, j := range []int{1, 4, 8} {
				// A small budget keeps the suite fast under -race and
				// deliberately exercises truncated runs, which must be
				// just as scheduling-independent as exhaustive ones.
				res, err := Decide(c.q, c.set, Options{Parallelism: j, SearchBudget: 1500, MaxWitnessSize: 5})
				if err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				got := fingerprintResult(res)
				if j == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("-j %d diverged:\n  -j 1: %s\n  -j %d: %s", j, want, j, got)
				}
			}
		})
	}
}

// TestSearchCompleteDeterministicAcrossParallelism drives layer 4
// directly (bypassing the earlier layers that could settle the answer
// first), including the memo-off ablation: caching must not change any
// outcome either.
func TestSearchCompleteDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := witnessBound(c.q, c.set, Options{})
			if bound <= 0 || bound > 6 {
				// Cap the enumeration depth: determinism must hold at any
				// bound, and small bounds keep -race runs fast.
				bound = 6
			}
			type outcome struct {
				fp        string
				examined  int
				exhausted bool
			}
			var want outcome
			for i, opt := range []Options{
				{Parallelism: 1, SearchBudget: 1500},
				{Parallelism: 4, SearchBudget: 1500},
				{Parallelism: 8, SearchBudget: 1500},
				{Parallelism: 4, SearchBudget: 1500, DisableSearchMemo: true},
			} {
				w, examined, exhausted, err := SearchComplete(c.q, c.set, opt, bound)
				if err != nil {
					t.Fatalf("opt %+v: %v", opt, err)
				}
				fp := "<none>"
				if w != nil {
					fp = w.CanonicalKey()
				}
				got := outcome{fp: fp, examined: examined, exhausted: exhausted}
				if i == 0 {
					want = got
					continue
				}
				// The examined count is scheduling-independent only
				// because every branch runs to completion (or is
				// skipped wholesale after a lower branch won); compare
				// witness and exhaustion, the externally visible
				// contract.
				if got.fp != want.fp || got.exhausted != want.exhausted {
					t.Errorf("opt %+v diverged: got %+v want %+v", opt, got, want)
				}
			}
		})
	}
}

// TestStatsDeterministicAcrossParallelism: the fields obs classifies as
// DETERMINISTIC must be byte-identical at -j 1, 4 and 8 — the stats
// extension of the determinism contract. Run under -race this also
// exercises the collection-side synchronization (per-branch flushes,
// worker-slot writes).
func TestStatsDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, j := range []int{1, 4, 8} {
				res, err := Decide(c.q, c.set, Options{Parallelism: j, SearchBudget: 1500, MaxWitnessSize: 5})
				if err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				if res.Stats == nil {
					t.Fatalf("-j %d: stats collection is on by default, got nil", j)
				}
				got := res.Stats.DeterministicFingerprint()
				if j == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("-j %d stats diverged:\n  -j 1: %s\n  -j %d: %s", j, want, j, got)
				}
			}
		})
	}
}

// TestStatsDeterministicAcrossMemo: the memo ablation recomputes the
// same pure functions, so the chase and search deterministic fields are
// unchanged. The containment group is excluded by design: with the memo
// off no Prepared checker exists and RewriteDisjuncts is the -1
// sentinel.
func TestStatsDeterministicAcrossMemo(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := witnessBound(c.q, c.set, Options{})
			if bound <= 0 || bound > 6 {
				bound = 6
			}
			var want string
			for i, opt := range []Options{
				{Parallelism: 1, SearchBudget: 1500},
				{Parallelism: 4, SearchBudget: 1500, DisableSearchMemo: true},
			} {
				_, st, _, _, err := SearchCompleteStats(c.q, c.set, opt, bound)
				if err != nil {
					t.Fatalf("opt %+v: %v", opt, err)
				}
				got := st.Chase.Fingerprint() + " " + st.Search.Fingerprint()
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("memo ablation changed deterministic stats:\n  memo:   %s\n  nomemo: %s", want, got)
				}
			}
		})
	}
}

// TestStatsDecisiveCandidatesSequential: at -j 1 the decisive candidate
// count on non-truncated runs is just the examined count — pin the two
// together so the decisive aggregation cannot silently drift from the
// sequential meaning it encodes.
func TestStatsDecisiveCandidatesSequential(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := witnessBound(c.q, c.set, Options{})
			if bound <= 0 || bound > 6 {
				bound = 6
			}
			w, st, examined, exhausted, err := SearchCompleteStats(c.q, c.set, Options{Parallelism: 1, SearchBudget: 1500}, bound)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case w != nil || exhausted:
				if st.Search.Candidates != examined {
					t.Errorf("sequential decisive=%d, examined=%d (witness=%v exhausted=%v)",
						st.Search.Candidates, examined, w != nil, exhausted)
				}
			default:
				if st.Search.Candidates != -1 {
					t.Errorf("truncated no-witness run: decisive=%d, want -1 sentinel", st.Search.Candidates)
				}
			}
		})
	}
}

// TestParallelSearchSharedBudgetStops: a starved budget must stop the
// parallel search without claiming exhaustion, at every -j.
func TestParallelSearchSharedBudgetStops(t *testing.T) {
	set := deps.MustParse("A(x) -> B(x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), B(x).")
	for _, j := range []int{1, 4} {
		opt := Options{SearchBudget: 30, Parallelism: j}
		w, examined, exhausted, err := SearchComplete(q, set, opt, 500)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if w != nil {
			t.Fatalf("-j %d: unexpected witness %s", j, w)
		}
		if exhausted {
			t.Errorf("-j %d: starved search claimed exhaustion", j)
		}
		if examined > 30+8 {
			t.Errorf("-j %d: examined %d blew past the shared budget", j, examined)
		}
	}
}

// TestDecideMapOrderDeterministic: with a small search budget the
// chase-subset layer's outcome follows the restricted chase's firing
// order, which follows the candidate order of the cloned instance it
// starts from. Instance.Clone keeps index order, so repeated runs give
// one witness and one DETERMINISTIC stats fingerprint.
func TestDecideMapOrderDeterministic(t *testing.T) {
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), P(x,y), P(y,x), P(x,x).")
	set := deps.MustParse("P(x,y) -> Q(x,z), Q(y,z).")
	render := func() string {
		res, err := Decide(q, set, Options{SearchBudget: 10})
		if err != nil {
			t.Fatal(err)
		}
		w := "<none>"
		if res.Witness != nil {
			w = res.Witness.String()
		}
		return fmt.Sprintf("verdict=%s witness=%s %s", res.Verdict, w, res.Stats.DeterministicFingerprint())
	}
	want := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d: %s\nfirst run: %s", i, got, want)
		}
	}
}
