// Package srv is an epochthread fixture: every non-test caller of
// instance.ApplyDelta or Overlay.Commit must bind the returned
// DeltaResult so the epoch thread survives.
package srv

import (
	"semacyclic/internal/instance"
)

// fireAndForget mutates and throws the result away: the epoch thread
// breaks here.
func fireAndForget(db *instance.Instance, ins, del []instance.Atom) {
	db.ApplyDelta(ins, del) // want "ApplyDelta result discarded"
}

// blankResult keeps the error but blanks the DeltaResult — same break,
// the epoch is in the result.
func blankResult(db *instance.Instance, ins, del []instance.Atom) error {
	_, err := db.ApplyDelta(ins, del) // want "ApplyDelta DeltaResult assigned to blank"
	return err
}

// asyncMutation can never observe the result.
func asyncMutation(db *instance.Instance, ins []instance.Atom) {
	go db.ApplyDelta(ins, nil)    // want "ApplyDelta in a go statement"
	defer db.ApplyDelta(nil, ins) // want "ApplyDelta in a defer statement"
}

// overlayCommit applies a batch through an overlay: Commit returns the
// same DeltaResult, under the same contract.
func overlayCommit(db *instance.Instance, ins []instance.Atom) (uint64, error) {
	ov, err := db.NewOverlay(ins, nil)
	if err != nil {
		return 0, err
	}
	ov.Commit()          // want "Commit result discarded"
	_, err = ov.Commit() // want "Commit DeltaResult assigned to blank"
	if err != nil {
		return 0, err
	}
	res, err := ov.Commit()
	return res.Epoch, err
}

// threaded is the sanctioned shape: the result is bound and its epoch
// flows onward.
func threaded(db *instance.Instance, ins, del []instance.Atom) (uint64, error) {
	res, err := db.ApplyDelta(ins, del)
	if err != nil {
		return 0, err
	}
	return res.Epoch, nil
}

// annotated documents a site that genuinely does not need the epoch.
func annotated(db *instance.Instance, ins []instance.Atom) {
	//semalint:allow epochthread(teardown path; no retained state outlives this instance)
	db.ApplyDelta(ins, nil)
}

// sameNameOtherType proves the check is type-based: a local type with
// an ApplyDelta method is never flagged.
type fake struct{}

func (fake) ApplyDelta(a, b int) int { return a + b }

func (fake) Commit() int { return 0 }

func sameNameOtherType(f fake) {
	f.ApplyDelta(1, 2)
	f.Commit()
}
