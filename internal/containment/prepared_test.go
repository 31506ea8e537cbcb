package containment

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
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
		return p.WithCancel(nil)
	}()
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the span tree of the recorder Prepare was traced with is still reachable from the checker")
	}
	if _, err := p.Check(q); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
}
