package rewrite

import (
	"errors"
	"testing"
	"time"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/stop"
)

// A pre-closed cancel channel aborts the rewriting before the BFS
// expands anything.
func TestCancelPreClosed(t *testing.T) {
	set := deps.MustParse("T(x,y,z) -> S(y,w).\nR(x,y), P(y,z) -> T(x,y,w).")
	q := cq.MustParse("q :- S(u,v).")
	ch := make(chan struct{})
	close(ch)
	_, err := Rewrite(q, set, Options{Cancel: ch})
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v, want stop.ErrCancelled", err)
	}
}

// Cancelling mid-rewriting aborts within one rewrite step. The sticky
// set's rewriting is worst-case exponential, so without the cancel this
// workload runs far longer than the test budget.
func TestCancelMidRewrite(t *testing.T) {
	// The Example 3 family: disjunct count explodes with n.
	src := ""
	for i := 1; i <= 12; i++ {
		src += "P" + itoa(i) + "(x), P" + itoa(i) + "(y) -> P" + itoa(i-1) + "(x)\n"
	}
	set, err := deps.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q :- P0(u).")
	ch := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(ch)
	}()
	start := time.Now()
	_, rerr := Rewrite(q, set, Options{MaxDisjuncts: 1 << 30, Cancel: ch})
	wall := time.Since(start)
	if !errors.Is(rerr, stop.ErrCancelled) {
		// The workload finishing under 20ms is possible on a fast
		// machine; only a non-cancel error is a failure then.
		if rerr != nil {
			t.Fatalf("err = %v, want stop.ErrCancelled or nil", rerr)
		}
		t.Skip("rewriting completed before the cancel fired")
	}
	if wall > 10*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
