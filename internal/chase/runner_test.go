package chase

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// canonicalRun renders a chase result up to renaming of nulls: its
// atoms in slot order with their depths, each null replaced by the
// index of its first occurrence, then the frozen tuple.
func canonicalRun(res *Result, tuple []term.Term) string {
	ids := map[term.Term]int{}
	name := func(t term.Term) string {
		if !t.IsNull() {
			return t.String()
		}
		if _, ok := ids[t]; !ok {
			ids[t] = len(ids)
		}
		return fmt.Sprintf("_%d", ids[t])
	}
	var b strings.Builder
	for _, a := range res.Instance.AtomsUnordered() {
		d, _ := res.DepthOf(a)
		b.WriteString(a.Pred)
		for _, t := range a.Args {
			b.WriteString(" " + name(t))
		}
		fmt.Fprintf(&b, " @%d\n", d)
	}
	for _, t := range tuple {
		b.WriteString(name(t) + " ")
	}
	return b.String()
}

// TestRunnerMatchesReference: one Runner, reused over random (q, Σ)
// pairs of every workload class and mixed tgd/egd sets, with the
// oblivious and depth-bounded chase varied and a cancelled run and a
// failing egd run interleaved, returns at every call what a fresh
// Query returns: Complete, Steps, Stats, Len, the atoms in slot order
// with their depths up to renaming of nulls, and the frozen tuple. A
// query holding a null the runner minted before is chased with new
// names, so no derived null equals it.
func TestRunnerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	trials := 600
	if testutil.RaceEnabled || testing.Short() {
		trials = 150
	}
	var run Runner
	var minted []term.Term // nulls of the runner's previous result
	heldAndChased := 0
	failing := cq.MustParse("q :- E0('a','b'), E0('a','c').")
	failSet := deps.MustParse("E0(x,y), E0(x,z) -> y = z.")
	closed := make(chan struct{})
	close(closed)
	for trial := 0; trial < trials; trial++ {
		switch trial % 7 {
		case 3:
			if _, _, err := run.Query(failing, failSet, Options{}); !errors.Is(err, ErrFailed) {
				t.Fatalf("trial %d: failing egd run: %v, want ErrFailed", trial, err)
			}
		case 5:
			q, set, _ := gen.RandomWorkload(r, "inclusion", 2, 3, 1, 3)
			if _, _, err := run.Query(q, set, Options{Cancel: closed}); !errors.Is(err, stop.ErrCancelled) {
				t.Fatalf("trial %d: cancelled run: %v, want stop.ErrCancelled", trial, err)
			}
		}
		class := gen.WorkloadClasses[trial%len(gen.WorkloadClasses)]
		q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 2+r.Intn(4), 1, 3)
		if trial%4 == 1 {
			// A mixed set: the class's tgds beside key egds on E0, E1.
			keys := gen.RandomKeys2(r, 1+r.Intn(2), 2)
			set = deps.NewSet(set.TGDs, keys.EGDs)
		}
		opt := Options{MaxSteps: 100 + r.Intn(300), MaxDepth: r.Intn(5), Oblivious: r.Intn(3) == 0}
		withNull := trial%9 == 8 && len(minted) > 0
		var held term.Term
		if withNull {
			// A query holding a null the runner minted before, under a
			// set that derives nulls from it.
			held = minted[r.Intn(len(minted))]
			q = cq.MustParse("q :- E0(x,y), E0(y,z).").ApplySubst(term.Subst{term.Var("x"): held})
			set = deps.MustParse("E0(x,y) -> E0(y,w).")
			opt.MaxDepth = 1 + r.Intn(4)
		}
		want, wantTuple, wantErr := Query(q, set, opt)
		got, gotTuple, gotErr := run.Query(q, set, opt)
		name := fmt.Sprintf("trial %d: %s under %s (%+v)", trial, q, set, opt)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !errors.Is(gotErr, ErrFailed) {
			t.Fatalf("%s: runner error %v, fresh %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			minted = nil
			continue
		}
		if got.Complete != want.Complete || got.Steps != want.Steps || got.Stats != want.Stats || got.Instance.Len() != want.Instance.Len() {
			t.Fatalf("%s: runner Complete %v Steps %d Len %d Stats %+v;\nfresh Complete %v Steps %d Len %d Stats %+v",
				name, got.Complete, got.Steps, got.Instance.Len(), got.Stats, want.Complete, want.Steps, want.Instance.Len(), want.Stats)
		}
		if g, w := canonicalRun(got, gotTuple), canonicalRun(want, wantTuple); g != w {
			t.Fatalf("%s: runner result\n%s\nfresh\n%s", name, g, w)
		}
		if withNull {
			if g, w := len(got.Instance.Nulls()), len(want.Instance.Nulls()); g != w {
				t.Fatalf("%s: %d nulls, fresh %d: a chased null took the query's null %s", name, g, w, held)
			}
			if got.Stats.NullsCreated > 0 {
				heldAndChased++
			}
		}
		minted = got.Instance.Nulls()
	}
	if heldAndChased == 0 {
		t.Fatal("no query holding a null derived nulls of its own")
	}
}
