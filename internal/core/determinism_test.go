package core

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
)

// determinismCorpus pairs queries from internal/gen with dependency
// sets across the paper's classes. Each case runs every decision layer;
// several are cyclic with no small witness, driving the layer-4
// enumerator to exhaustion or to its budget.
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

// fingerprintResult reduces a decision to the fields that must repeat
// run to run. Witnesses are compared by canonical form
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

// TestDecideDeterministicAcrossParallelism: two runs of Decide on the
// same input produce an identical verdict and canonical witness across
// the corpus. A small budget keeps the suite fast under -race and
// deliberately exercises truncated runs, which must repeat just as
// exactly as exhaustive ones. (The name predates the sequential
// search; the corpus at this budget is decided nowhere else.)
func TestDecideDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var runs [2]string
			for i := range runs {
				res, err := Decide(c.q, c.set, Options{SearchBudget: 1500})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				runs[i] = fingerprintResult(res)
			}
			if runs[0] != runs[1] {
				t.Errorf("runs diverged:\n  run 0: %s\n  run 1: %s", runs[0], runs[1])
			}
		})
	}
}

// TestSearchCompleteDeterministicAcrossParallelism drives layer 4
// directly (bypassing the earlier layers that could settle the answer
// first) with the memo on and off: caching must not change the
// witness, the examined count or exhaustion.
func TestSearchCompleteDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := witnessBound(c.q, c.set)
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
				{SearchBudget: 1500},
				{SearchBudget: 1500, DisableSearchMemo: true},
			} {
				w, _, examined, exhausted, err := SearchComplete(c.q, c.set, opt, bound)
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
				if got != want {
					t.Errorf("opt %+v diverged: got %+v want %+v", opt, got, want)
				}
			}
		})
	}
}

// TestStatsDeterministicAcrossParallelism: the fields obs classifies as
// DETERMINISTIC are byte-identical across two runs of the same input —
// the stats extension of the determinism contract. (The name predates
// the sequential search.)
func TestStatsDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var runs [2]string
			for i := range runs {
				res, err := Decide(c.q, c.set, Options{SearchBudget: 1500})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if res.Stats == nil {
					t.Fatalf("run %d: stats collection is on by default, got nil", i)
				}
				runs[i] = res.Stats.DeterministicFingerprint()
			}
			if runs[0] != runs[1] {
				t.Errorf("stats diverged:\n  run 0: %s\n  run 1: %s", runs[0], runs[1])
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
			bound := witnessBound(c.q, c.set)
			if bound <= 0 || bound > 6 {
				bound = 6
			}
			var want string
			for i, opt := range []Options{
				{SearchBudget: 1500},
				{SearchBudget: 1500, DisableSearchMemo: true},
			} {
				_, st, _, _, err := SearchComplete(c.q, c.set, opt, bound)
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

// TestStatsDecisiveCandidatesSequential: the decisive candidate count
// on non-truncated runs is just the examined count — pin the two
// together so the decisive count cannot silently drift from the
// meaning it encodes.
func TestStatsDecisiveCandidatesSequential(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := witnessBound(c.q, c.set)
			if bound <= 0 || bound > 6 {
				bound = 6
			}
			w, st, examined, exhausted, err := SearchComplete(c.q, c.set, Options{SearchBudget: 1500}, bound)
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

// TestSearchSharedBudgetStops: a starved budget stops the search
// without claiming exhaustion, after exactly the budgeted
// verifications.
func TestSearchSharedBudgetStops(t *testing.T) {
	set := deps.MustParse("A(x) -> B(x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), B(x).")
	w, _, examined, exhausted, err := SearchComplete(q, set, Options{SearchBudget: 30}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("unexpected witness %s", w)
	}
	if exhausted {
		t.Error("starved search claimed exhaustion")
	}
	if examined > 30 {
		t.Errorf("examined %d blew past the budget of 30", examined)
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
