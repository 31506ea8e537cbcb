// Package stop is the engines' one cancellation contract. Every
// cancellable entry point — chase, rewrite, hom, yannakakis, game,
// containment and core — polls its caller's channel with Cancelled and
// returns ErrCancelled when it has closed, so a caller tests one
// sentinel whichever engine stopped, and no package translates
// another's error.
package stop

import "errors"

// ErrCancelled reports a run aborted because its cancel channel
// closed. Test for it with errors.Is.
var ErrCancelled = errors.New("cancelled")

// Cancelled polls ch without blocking: true once ch is closed (or
// receives). A nil channel never fires, so an uncancellable run pays
// one non-blocking select per poll.
func Cancelled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
