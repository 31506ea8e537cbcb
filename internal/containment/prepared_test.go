package containment

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/stop"
	"semacyclic/internal/telemetry"
)

// TestPreparedDropsTrace: a Prepared keeps no span recorder. The
// semacycd server caches checkers built under a request's recorder, so
// a checker holding opt.Trace kept that request's whole span tree
// alive for as long as the cache held the checker.
func TestPreparedDropsTrace(t *testing.T) {
	set := deps.MustParse("S(x,y) -> S(y,w).")
	q := cq.MustParse("q :- S(x,y), S(y,z).")
	var collected atomic.Bool
	p := func() *Prepared {
		rec := telemetry.NewRecorder("request")
		p, err := Prepare(q, set, Options{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		// The finalizer sits on an event span, which the tree holds
		// but which holds nothing back: a finalizer on the recorder
		// itself would never run, as its spans point back at it.
		rec.Event("marker")
		root := rec.Finish()
		marker := root.Children[len(root.Children)-1]
		runtime.SetFinalizer(marker, func(*telemetry.Span) { collected.Store(true) })
		return p
	}()
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the span tree of the recorder Prepare was traced with is still reachable from the checker")
	}
	if _, err := p.Check(q, new(chase.Runner), nil); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
}

// TestPreparedCheckCancelMidChase: the channel a Check call passes
// reaches the chase it runs. Under E(x,y) → E(y,z) with no depth
// budget the bounded chase of q :- E(x,y) grows one atom per round and
// re-collects every trigger each round, so it runs for well over five
// seconds, and q' :- E(x,x) never holds on it. A cancel closed 20 ms into the check
// must stop it with stop.ErrCancelled within 250 ms of the close, also
// under -race.
func TestPreparedCheckCancelMidChase(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(y,z).")
	p, err := Prepare(cq.MustParse("q :- E(x,x)."), set, Options{Chase: chase.Options{MaxDepth: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	var closedAt atomic.Int64
	timer := time.AfterFunc(20*time.Millisecond, func() {
		closedAt.Store(time.Now().UnixNano())
		close(cancel)
	})
	defer timer.Stop()
	_, err = p.Check(cq.MustParse("q :- E(x,y)."), new(chase.Runner), cancel)
	returned := time.Now()
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("Check returned %v after the cancel closed, want at most 250ms", lag)
	}
}

// TestPreparedLeftCheckCancelMidChase: the channel a PreparedLeft's
// Check passes reaches the chase of the left-hand side, and the
// cancelled chase is not kept. The unbounded chase of q :- E(x,y) under
// E(x,y) → E(y,z) runs for well over five seconds, and q' :- E(x,x)
// never holds on it; a cancel closed 20 ms into the check must stop it
// within 250 ms of the close, also under -race.
func TestPreparedLeftCheckCancelMidChase(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(y,z).")
	l := PrepareLeft(cq.MustParse("q :- E(x,y)."), set, Options{Chase: chase.Options{MaxDepth: 1 << 30}})
	cancel := make(chan struct{})
	var closedAt atomic.Int64
	timer := time.AfterFunc(20*time.Millisecond, func() {
		closedAt.Store(time.Now().UnixNano())
		close(cancel)
	})
	defer timer.Stop()
	_, err := l.Check(cq.MustParse("q :- E(x,x)."), cancel)
	returned := time.Now()
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("Check returned %v after the cancel closed, want at most 250ms", lag)
	}
	if len(l.chases) != 0 {
		t.Fatalf("the cancelled chase was kept: %d chases", len(l.chases))
	}
}
