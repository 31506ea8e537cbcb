package server

import (
	"errors"
	"fmt"
	"net/http"

	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
)

// PatchRequest is the JSON body of PATCH /instances/{name}: one atomic
// delta batch against a loaded instance.
type PatchRequest struct {
	// Insert and Delete hold ground atoms in the instance syntax
	// ("R(a,b). S(c)."). Deletes apply before inserts and semantics are
	// set-based and net (see instance.ApplyDelta): duplicates collapse,
	// absent deletes and present inserts are no-ops, and an atom both
	// deleted and inserted in one batch ends present.
	Insert string `json:"insert,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// PatchResponse reports one applied batch.
type PatchResponse struct {
	Name string `json:"name"`
	// Epoch is the instance epoch after the batch; pass-through to the
	// epoch /evaluate echoes, so clients can tell which batches an
	// answer reflects.
	Epoch uint64 `json:"epoch"`
	// Inserted and Deleted count the effective (net) mutations; both 0
	// means the batch was a no-op (the epoch advanced anyway).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Atoms is the instance size after the batch.
	Atoms int `json:"atoms"`
}

// servePatch is PATCH /instances/{name}. Failure modes: 404 unknown
// instance, 400 unparseable or empty batch, 409 arity clash (against
// the instance schema or within the batch), 413 when the patched
// instance would exceed the configured atom limit. Nothing is applied
// on any failure — the batch is atomic.
func (s *Server) servePatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	obs.ServerRequests.Add(1)
	ins, err := instance.ParseAtoms(req.Insert)
	if err != nil {
		writeError(w, http.StatusBadRequest, "insert: "+err.Error())
		return
	}
	del, err := instance.ParseAtoms(req.Delete)
	if err != nil {
		writeError(w, http.StatusBadRequest, "delete: "+err.Error())
		return
	}
	if len(ins) == 0 && len(del) == 0 {
		writeError(w, http.StatusBadRequest, "empty patch: provide insert and/or delete atoms")
		return
	}
	e, ok := s.instances.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q (load it via POST /instances)", name))
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The overlay holds the validated net batch, and its Len is the
	// exact post-batch size, so an oversized patch rejects without
	// applying anything.
	ov, err := e.db.NewOverlay(ins, del)
	if err != nil {
		if errors.Is(err, instance.ErrArityClash) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if max := s.instances.maxAtoms; max > 0 && ov.Len() > max {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("patch grows instance to %d atoms, limit %d", ov.Len(), max))
		return
	}
	res, err := ov.Commit()
	if err != nil {
		// Unreachable: the write lock keeps the base at the overlay's
		// epoch.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	e.preds, e.counts = e.db.Predicates()
	obs.ServerPatches.Add(1)
	obs.ServerEpochChurn.Add(1)
	obs.ServerDeltaInserts.Add(int64(res.Inserted))
	obs.ServerDeltaDeletes.Add(int64(res.Deleted))
	writeJSON(w, http.StatusOK, PatchResponse{
		Name:     name,
		Epoch:    res.Epoch,
		Inserted: res.Inserted,
		Deleted:  res.Deleted,
		Atoms:    e.db.Len(),
	})
}
