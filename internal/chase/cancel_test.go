package chase

import (
	"errors"
	"testing"
	"time"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/stop"
)

// A pre-closed cancel channel aborts before any chase work happens.
func TestCancelPreClosed(t *testing.T) {
	q := cq.MustParse("q :- E(x,y).")
	set := deps.MustParse("E(x,y) -> E(y,z).")
	ch := make(chan struct{})
	close(ch)
	_, _, err := Query(q, set, Options{MaxDepth: 1000, MaxSteps: 1_000_000, Cancel: ch})
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
}

// Cancelling mid-run aborts the fixpoint loop promptly: the polls sit
// before every trigger firing, so the latency is one chase step, not
// one full pass — bounded here very generously to stay robust under
// -race on loaded machines.
func TestCancelMidRun(t *testing.T) {
	// A recursive existential tgd chases forever without budgets; give
	// it effectively unbounded ones so only the cancel stops it.
	q := cq.MustParse("q :- E(x,y).")
	set := deps.MustParse("E(x,y) -> E(y,z).")
	ch := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(ch)
	}()
	start := time.Now()
	_, _, err := Query(q, set, Options{MaxDepth: 1 << 30, MaxSteps: 1 << 40, Cancel: ch})
	wall := time.Since(start)
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
	if wall > 10*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

// A nil Cancel channel must not change behavior: the non-blocking poll
// on a nil channel never fires.
func TestCancelNilChannel(t *testing.T) {
	q := cq.MustParse("q :- E(x,y).")
	set := deps.MustParse("E(x,y) -> F(y).")
	res, _, err := Query(q, set, Options{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("terminating chase reported incomplete")
	}
}

// An egd-driven chase polls inside the egd fixpoint too.
func TestCancelEGD(t *testing.T) {
	q := cq.MustParse("q :- R(a,x), R(a,y), R(a,z).")
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	ch := make(chan struct{})
	close(ch)
	_, _, err := Query(q, set, Options{Cancel: ch})
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
}
