package hom

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/cq"
)

// chainCQ returns the Boolean chain q :- E(x0,x1), …, E(x_{n-1},x_n),
// its own core: a retraction search tries every atom as the victim and
// each one fails, so the core of a 256-atom chain takes seconds.
func chainCQ(n int) *cq.CQ {
	atoms := make([]string, n)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("E(x%d,x%d)", i, i+1)
	}
	return cq.MustParse("q :- " + strings.Join(atoms, ", ") + ".")
}

// TestCoreCancelLongChain: a cancel closed 50 ms into the core of the
// 256-atom chain stops it with ErrCancelled within 250 ms of the close,
// also under -race: the search polls before every victim atom and
// inside each retraction search. Without the polls it ran for about
// four seconds.
func TestCoreCancelLongChain(t *testing.T) {
	q := chainCQ(256)
	cancel := make(chan struct{})
	var closedAt atomic.Int64
	timer := time.AfterFunc(50*time.Millisecond, func() {
		closedAt.Store(time.Now().UnixNano())
		close(cancel)
	})
	defer timer.Stop()
	_, err := CoreCancel(q, cancel)
	returned := time.Now()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("CoreCancel returned %v after the cancel closed, want at most 250ms", lag)
	}
}

// TestCoreCancelNilChannel: a nil or open channel changes nothing, and
// a closed one stops even a query whose core needs no search.
func TestCoreCancelNilChannel(t *testing.T) {
	q := cq.MustParse("q(x) :- E(x,y), E(x,z), E(z,w), F(y,y), F(w,w).")
	want := Core(q)
	for _, ch := range []chan struct{}{nil, make(chan struct{})} {
		got, err := CoreCancel(q, ch)
		if err != nil || got.String() != want.String() {
			t.Fatalf("CoreCancel = %v, %v; Core = %s", got, err, want)
		}
	}
	closed := make(chan struct{})
	close(closed)
	if _, err := CoreCancel(cq.MustParse("q :- E(x,y)."), closed); !errors.Is(err, ErrCancelled) {
		t.Fatalf("closed channel: err = %v, want ErrCancelled", err)
	}
}
