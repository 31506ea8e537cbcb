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
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want ErrCancelled", j, err)
		}
	}
}

// Cancelling mid-decision returns ErrCancelled promptly at -j 1, 4 and
// 8: the parallel branch workers poll inside their inner enumeration,
// so no worker runs its branch to completion first.
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
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want ErrCancelled", j, err)
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
		w, st, _, exhausted, err := SearchCompleteStats(q, set, Options{Parallelism: j, SearchBudget: 1 << 30, Cancel: ch}, 6)
		if err == nil {
			continue // completed before the cancel
		}
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("j=%d: err = %v, want ErrCancelled", j, err)
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
	if _, err := DecideUCQ(u, set, Options{Cancel: ch}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// Approximate propagates cancellation from the inner Decide.
func TestApproximateCancel(t *testing.T) {
	q, set := stickyCancelCase()
	ch := make(chan struct{})
	close(ch)
	if _, err := Approximate(q, set, Options{Cancel: ch}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// Completed runs stay deterministic with a caller-supplied Prepared
// checker: the verdict, witness and stats fingerprint are identical at
// every parallelism level and identical to the self-prepared run —
// the property the semacycd decision cache's byte-identity rests on.
func TestPreparedDeterminismAcrossJ(t *testing.T) {
	q, set := stickyCancelCase()
	base, err := Decide(q, set, Options{Parallelism: 1, SearchBudget: 800})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := containment.Prepare(q, set, containment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 4, 8} {
		res, err := Decide(q, set, Options{Parallelism: j, SearchBudget: 800, Prepared: prep})
		if err != nil {
			t.Fatal(err)
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

// WithCancel views share the hoisted state but not the channel: a view
// with a closed channel aborts, while the receiver and a cleared view
// keep working — the invariant that lets a cache hold one Prepared per
// (q', Σ) across requests.
func TestPreparedWithCancelViews(t *testing.T) {
	q, set := stickyCancelCase()
	prep, err := containment.Prepare(q, set, containment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var r chase.Runner
	if _, err := prep.Check(q, &r); err != nil {
		t.Fatalf("base Check: %v", err)
	}
	ch := make(chan struct{})
	close(ch)
	view := prep.WithCancel(ch)
	cleared := view.WithCancel(nil)
	if _, err := cleared.Check(q, &r); err != nil {
		t.Fatalf("cleared view Check: %v", err)
	}
	if _, err := prep.Check(q, &r); err != nil {
		t.Fatalf("base Check after views: %v", err)
	}
	if prep.Checks() < 3 {
		t.Fatalf("Checks() = %d, want shared counter across views", prep.Checks())
	}
}

// TestDecideCancelLongCore: layer 1's core search polls the decision's
// cancel channel. The 256-atom chain under E(x,y) → E(y,z), a query
// semacycd admits, is its own core, so layer 1 tries every atom as a
// retraction victim and fails each time; without the polls Decide
// answered yes after about four seconds however early the channel
// closed. Closed after 50 ms, it must return ErrCancelled within
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
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("Decide returned %v after the cancel closed, want at most 250ms", lag)
	}
}
