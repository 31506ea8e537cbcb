package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/stop"
)

// The tri-sticky workload the server deadline tests also use:
// verification rewrites, layer 4 enumerates — every cancellation poll
// in the pipeline is on the path.
func stickyCancelCase() (*cq.CQ, *deps.Set) {
	set := deps.MustParse("US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y).")
	q := cq.MustParse("q :- S0(x,y), S0(y,z), S0(z,x).")
	return q, set
}

// A pre-closed channel cancels Decide before any layer runs, at every
// parallelism level.
func TestDecideCancelPreClosed(t *testing.T) {
	q, set := stickyCancelCase()
	for _, j := range []int{1, 4, 8} {
		ch := make(chan struct{})
		close(ch)
		_, err := Decide(q, set, Options{Parallelism: j, Cancel: ch})
		if !errors.Is(err, stop.ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want stop.ErrCancelled", j, err)
		}
	}
}

// Cancelling mid-decision returns stop.ErrCancelled promptly at -j 1,
// 4 and 8: the parallel branch workers poll inside their inner
// enumeration, so no worker runs its branch to completion first.
func TestDecideCancelMidSearch(t *testing.T) {
	q, set := stickyCancelCase()
	for _, j := range []int{1, 4, 8} {
		ch := make(chan struct{})
		go func() {
			time.Sleep(15 * time.Millisecond)
			close(ch)
		}()
		start := time.Now()
		_, err := Decide(q, set, Options{Parallelism: j, SearchBudget: 1 << 30, Cancel: ch})
		wall := time.Since(start)
		if err == nil {
			// Finishing before the timer fires is possible on a fast
			// machine and is not a cancellation bug.
			continue
		}
		if !errors.Is(err, stop.ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want stop.ErrCancelled", j, err)
		}
		if wall > 15*time.Second {
			t.Fatalf("j=%d: cancellation took %v", j, wall)
		}
	}
}

// A cancelled layer-4 run leaves consistent partial stats: per-branch
// counters are flushed on abort and the deterministic fields keep their
// "not defined" sentinels, so a fingerprint of the partial record never
// masquerades as a completed run's.
func TestCancelStatsSentinels(t *testing.T) {
	q, set := stickyCancelCase()
	for _, j := range []int{1, 4} {
		ch := make(chan struct{})
		go func() {
			time.Sleep(10 * time.Millisecond)
			close(ch)
		}()
		w, st, _, exhausted, err := SearchComplete(q, set, Options{Parallelism: j, SearchBudget: 1 << 30, Cancel: ch}, 6)
		if err == nil {
			continue // completed before the cancel
		}
		if !errors.Is(err, stop.ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want stop.ErrCancelled", j, err)
		}
		if w != nil {
			t.Fatalf("j=%d: cancelled run returned a witness", j)
		}
		if st.Search.WinnerBranch != -1 {
			t.Errorf("j=%d: WinnerBranch = %d, want -1 sentinel", j, st.Search.WinnerBranch)
		}
		if st.Search.Candidates != -1 {
			t.Errorf("j=%d: Candidates = %d, want -1 sentinel", j, st.Search.Candidates)
		}
		if exhausted || st.Search.Exhausted {
			t.Errorf("j=%d: cancelled run claimed exhaustion", j)
		}
	}
}

// DecideUCQ propagates cancellation out of the redundancy phase.
func TestUCQCancel(t *testing.T) {
	q, set := stickyCancelCase()
	u, err := cq.NewUCQ(q, cq.MustParse("q :- S0(x,y), S1(y,z), S0(z,x)."))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	close(ch)
	if _, err := DecideUCQ(u, set, Options{Cancel: ch}); !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
}

// Approximate propagates cancellation from the inner Decide.
func TestApproximateCancel(t *testing.T) {
	q, set := stickyCancelCase()
	ch := make(chan struct{})
	close(ch)
	if _, err := Approximate(q, set, Options{Cancel: ch}); !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
}

// TestPreparedDeterminismAcrossJ: a decision over the sticky set,
// which no determinism-corpus case covers, prepares its own checker
// (the UCQ rewriting of q) and still gives an identical verdict,
// witness and stats fingerprint at every parallelism level — the
// property the semacycd decision cache's byte-identity rests on.
func TestPreparedDeterminismAcrossJ(t *testing.T) {
	q, set := stickyCancelCase()
	var base *Result
	for _, j := range []int{1, 4, 8} {
		res, err := Decide(q, set, Options{Parallelism: j, SearchBudget: 800})
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			if res.Stats.Containment.PreparedChecks == 0 {
				t.Fatal("j=1: the decision prepared no checker")
			}
			base = res
			continue
		}
		if res.Verdict != base.Verdict {
			t.Fatalf("j=%d: verdict %v != %v", j, res.Verdict, base.Verdict)
		}
		if (res.Witness == nil) != (base.Witness == nil) {
			t.Fatalf("j=%d: witness presence differs", j)
		}
		if res.Witness != nil && res.Witness.CanonicalKey() != base.Witness.CanonicalKey() {
			t.Fatalf("j=%d: witness differs", j)
		}
		if got, want := res.Stats.DeterministicFingerprint(), base.Stats.DeterministicFingerprint(); got != want {
			t.Fatalf("j=%d fingerprint:\n got %s\nwant %s", j, got, want)
		}
	}
}

// TestPreparedWithCancelViews: Check takes its caller's cancel channel
// and a Prepared keeps none, the invariant that lets a cache hold one
// checker per (q', Σ) across requests. A closed channel aborts a
// chase-method check and a nil one never does, whatever channel
// Prepare ran under and whatever the previous check passed. A sticky
// checker's rewriting is built once, by Prepare: a closed channel
// aborts that rewriting, but changes no Check answer, because Check
// runs none.
func TestPreparedWithCancelViews(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	var r chase.Runner

	q := cq.MustParse("q :- E(x,y), E(y,z).")
	guarded := deps.MustParse("E(x,y) -> E(y,z).")
	prep, err := containment.Prepare(q, guarded, containment.Options{Chase: chase.Options{Cancel: closed}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range []<-chan struct{}{nil, closed, nil, closed} {
		_, err := prep.Check(q, &r, ch)
		if ch == nil && err != nil {
			t.Fatalf("check %d, nil channel: %v", i, err)
		}
		if ch != nil && !errors.Is(err, stop.ErrCancelled) {
			t.Fatalf("check %d, closed channel: err = %v, want stop.ErrCancelled", i, err)
		}
	}
	if prep.Checks() != 4 {
		t.Fatalf("Checks() = %d, want 4", prep.Checks())
	}

	sq, sticky := stickyCancelCase()
	if _, err := containment.Prepare(sq, sticky, containment.Options{Rewrite: rewrite.Options{Cancel: closed}}); !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("Prepare under a closed channel: err = %v, want stop.ErrCancelled", err)
	}
	sp, err := containment.Prepare(sq, sticky, containment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := sp.SelectedMethod(); m != containment.MethodRewrite {
		t.Fatalf("method = %s, want %s", m, containment.MethodRewrite)
	}
	want, err := sp.Check(sq, &r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sp.Check(sq, &r, closed); err != nil || got != want {
		t.Fatalf("sticky Check under a closed channel = %+v, %v; want %+v, nil", got, err, want)
	}
}

// TestDecideCancelLongCore: layer 1's core search polls the decision's
// cancel channel. The 256-atom chain under E(x,y) → E(y,z), a query
// semacycd admits, is its own core, so layer 1 tries every atom as a
// retraction victim and fails each time; without the polls Decide
// answered yes after about four seconds however early the channel
// closed. Closed after 50 ms, it must return stop.ErrCancelled within
// 250 ms of the close, also under -race.
func TestDecideCancelLongCore(t *testing.T) {
	q := gen.PathCQ(256)
	set := deps.MustParse("E(x,y) -> E(y,z).")
	cancel := make(chan struct{})
	var closedAt atomic.Int64
	timer := time.AfterFunc(50*time.Millisecond, func() {
		closedAt.Store(time.Now().UnixNano())
		close(cancel)
	})
	defer timer.Stop()
	_, err := Decide(q, set, Options{Cancel: cancel})
	returned := time.Now()
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("Decide returned %v after the cancel closed, want at most 250ms", lag)
	}
}
