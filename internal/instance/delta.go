package instance

import (
	"errors"
	"fmt"
	"sort"

	"semacyclic/internal/symtab"
)

// This file is the incremental-mutation layer: ApplyDelta applies an
// atomic batch of inserts and deletes, advancing a per-instance epoch,
// journalling the batch so incremental evaluators can catch up from an
// older epoch, and *repairing* the cached columnar InternedView instead
// of invalidating it — only the touched per-predicate relations are
// rebuilt, untouched ones are shared by pointer with the previous view,
// and the symbol table is shared outright when the batch introduces no
// new terms (or extended via a lineage-preserving symtab.Clone when it
// does, so ids minted by the old view stay valid in the new one).

// ErrArityClash is wrapped by ApplyDelta (and NewOverlay) when a batch
// atom uses a predicate with an arity conflicting with the instance
// schema or with another atom of the same batch. Callers mapping delta
// failures to protocol errors (semacycd answers 409) test for it with
// errors.Is.
var ErrArityClash = errors.New("instance: arity clash")

// Delta is one effective (net) mutation batch: the atoms a successful
// ApplyDelta actually inserted and actually deleted, after dropping
// duplicates, already-present inserts, absent deletes and
// delete-then-reinsert pairs. Atom slices are private copies owned by
// the journal; readers must not mutate them.
type Delta struct {
	Inserts []Atom
	Deletes []Atom
}

// DeltaResult reports one applied batch: the epoch the instance
// advanced to and the effective insert/delete counts. Callers must
// thread Epoch to whatever evaluation state they maintain — the
// semalint epochthread analyzer flags call sites that discard the
// result.
type DeltaResult struct {
	// Epoch is the instance epoch after the batch.
	Epoch uint64
	// Inserted and Deleted count the effective (net) mutations; both 0
	// means the batch was a no-op and the epoch still advanced.
	Inserted int
	Deleted  int
}

// journalEntry is one journalled batch; epoch is the instance epoch
// *after* the batch applied.
type journalEntry struct {
	epoch uint64
	d     Delta
}

// Journal bounds: at most this many batches and this many total atoms
// are retained. Beyond either, the oldest entries are dropped and
// DeltaSince calls reaching past the horizon report !ok (incremental
// callers then fall back to a full recompute).
const (
	maxJournalBatches = 256
	maxJournalAtoms   = 1 << 16
)

// Epoch returns the instance's mutation epoch: 0 for a fresh instance,
// +1 per atom-set-changing Add/Remove, +1 per ApplyDelta batch
// (including no-op batches). Two instances reaching the same epoch by
// the same call sequence hold the same atoms.
func (ins *Instance) Epoch() uint64 { return ins.epoch }

// ApplyDelta atomically applies a batch of deletes-then-inserts and
// advances the epoch by one. The whole batch is validated first —
// variables and arity clashes (against the instance schema or within
// the batch, ErrArityClash) reject it without applying anything.
//
// Semantics are set-based and net: duplicate batch atoms collapse,
// deleting an absent atom and inserting a present one are no-ops, and
// an atom both deleted and inserted in one batch ends present (net
// no-op when it already was). The returned DeltaResult carries the new
// epoch and the effective counts.
//
// Unlike Add/Remove, ApplyDelta repairs a cached interned view
// incrementally and appends the effective batch to the delta journal,
// so incremental evaluators holding reducer state from an earlier
// epoch can catch up via DeltaSince instead of recomputing.
//
// Like every Instance mutation, ApplyDelta is not safe for concurrent
// use with other mutations or readers of the live maps; callers
// serialize (the semacycd registry holds a per-entry write lock).
func (ins *Instance) ApplyDelta(inserts, deletes []Atom) (DeltaResult, error) {
	effIns, effDel, err := ins.netDelta(inserts, deletes)
	if err != nil {
		return DeltaResult{}, err
	}
	for _, a := range effDel {
		ins.removeIndexed(a.Key(), a)
	}
	for _, a := range effIns {
		if err := ins.sch.Add(a.Pred, len(a.Args)); err != nil {
			// Unreachable: netDelta validated arities against the schema.
			return DeltaResult{}, fmt.Errorf("%w: %w", ErrArityClash, err)
		}
		ins.addIndexed(a.Key(), a)
	}
	ins.epoch++
	ins.journal = append(ins.journal, journalEntry{epoch: ins.epoch, d: Delta{Inserts: effIns, Deletes: effDel}})
	ins.journalAtoms += len(effIns) + len(effDel)
	ins.trimJournal()
	if old := ins.interned.Load(); old != nil && len(effIns)+len(effDel) > 0 {
		ins.interned.Store(patchView(old, effIns, effDel, false))
	}
	return DeltaResult{Epoch: ins.epoch, Inserted: len(effIns), Deleted: len(effDel)}, nil
}

// DeltaSince returns the journalled batches that move an instance
// snapshot at the given epoch to the current one, oldest first (empty
// when epoch is current). ok is false when the journal cannot bridge
// the gap — the epoch is from the future, a bare Add/Remove truncated
// the journal, or the batches aged out — and the caller must treat the
// instance as arbitrarily changed (full recompute).
func (ins *Instance) DeltaSince(epoch uint64) ([]Delta, bool) {
	if epoch == ins.epoch {
		return nil, true
	}
	if epoch > ins.epoch || len(ins.journal) == 0 {
		return nil, false
	}
	first := ins.journal[0].epoch
	if epoch+1 < first {
		return nil, false // aged out or truncated before the requested epoch
	}
	idx := int(epoch + 1 - first)
	if idx >= len(ins.journal) {
		return nil, false
	}
	out := make([]Delta, 0, len(ins.journal)-idx)
	for _, e := range ins.journal[idx:] {
		out = append(out, e.d)
	}
	return out, true
}

// trimJournal drops the oldest entries past the batch/atom bounds.
func (ins *Instance) trimJournal() {
	drop := 0
	for drop < len(ins.journal) &&
		(len(ins.journal)-drop > maxJournalBatches || ins.journalAtoms > maxJournalAtoms) {
		e := ins.journal[drop]
		ins.journalAtoms -= len(e.d.Inserts) + len(e.d.Deletes)
		drop++
	}
	if drop > 0 {
		ins.journal = append([]journalEntry(nil), ins.journal[drop:]...)
	}
}

// netDelta validates a batch and computes its effective insert/delete
// lists against the current atom set: deduplicated, presence-checked,
// delete-then-reinsert pairs cancelled. Effective inserts come back as
// private clones ready for indexing; effective deletes are the stored
// atoms. The instance is not modified.
func (ins *Instance) netDelta(inserts, deletes []Atom) (effIns, effDel []Atom, err error) {
	arities := make(map[string]int)
	checkArity := func(a Atom) error {
		if a.HasVars() {
			return fmt.Errorf("instance: delta atom %s contains a variable", a)
		}
		if want, ok := ins.sch.Arity(a.Pred); ok && want != len(a.Args) {
			return fmt.Errorf("%w: predicate %s used with arity %d, instance has arity %d",
				ErrArityClash, a.Pred, len(a.Args), want)
		}
		if want, ok := arities[a.Pred]; ok && want != len(a.Args) {
			return fmt.Errorf("%w: predicate %s used with arities %d and %d in one batch",
				ErrArityClash, a.Pred, len(a.Args), want)
		}
		arities[a.Pred] = len(a.Args)
		return nil
	}
	for _, a := range inserts {
		if err := checkArity(a); err != nil {
			return nil, nil, err
		}
	}
	for _, a := range deletes {
		if err := checkArity(a); err != nil {
			return nil, nil, err
		}
	}

	insKeys := make(map[string]bool, len(inserts))
	for _, a := range inserts {
		insKeys[a.Key()] = true
	}
	seenDel := make(map[string]bool, len(deletes))
	for _, a := range deletes {
		k := a.Key()
		if seenDel[k] {
			continue
		}
		seenDel[k] = true
		stored, present := ins.atoms[k]
		if present && !insKeys[k] {
			effDel = append(effDel, stored)
		}
	}
	seenIns := make(map[string]bool, len(inserts))
	for _, a := range inserts {
		k := a.Key()
		if seenIns[k] {
			continue
		}
		seenIns[k] = true
		if _, present := ins.atoms[k]; !present {
			effIns = append(effIns, a.Clone())
		}
	}
	return effIns, effDel, nil
}

// patchView builds the successor of old after applying the effective
// batch: untouched relations are shared by pointer, touched ones are
// rebuilt by order-preserving compaction plus appended inserts, and
// the symbol table is shared when the batch adds no new terms (else
// extended on a Clone — CloneDetached when detached, for overlay views
// that must not join the base's lineage). Pure: old is not modified,
// so readers holding it stay consistent.
func patchView(old *InternedView, inserts, deletes []Atom, detached bool) *InternedView {
	type predDelta struct {
		ins, del []Atom
	}
	var order []string
	byPred := make(map[string]*predDelta)
	touch := func(p string) *predDelta {
		pd := byPred[p]
		if pd == nil {
			pd = &predDelta{}
			byPred[p] = pd
			order = append(order, p)
		}
		return pd
	}
	for _, a := range deletes {
		pd := touch(a.Pred)
		pd.del = append(pd.del, a)
	}
	for _, a := range inserts {
		pd := touch(a.Pred)
		pd.ins = append(pd.ins, a)
	}

	tab := old.Table
	cloned := false
	for _, a := range inserts {
		for _, t := range a.Args {
			if _, ok := tab.Lookup(t); !ok {
				if !cloned {
					if detached {
						tab = old.Table.CloneDetached()
					} else {
						tab = old.Table.Clone()
					}
					cloned = true
				}
				tab.Intern(t)
			}
		}
	}

	rels := make(map[string]*InternedRelation, len(old.rels)+len(order))
	for p, r := range old.rels {
		rels[p] = r
	}
	for _, p := range order {
		pd := byPred[p]
		if r := patchRelation(old.rels[p], pd.ins, pd.del, tab); r != nil {
			rels[p] = r
		}
	}
	return &InternedView{Table: tab, rels: rels}
}

// patchRelation rebuilds one predicate's columnar relation after the
// batch: surviving rows keep their relative order (an order-preserving
// compaction, so the filtered old per-position runs stay sorted and can
// be merged with the sorted runs of the appended inserts instead of
// re-sorting the whole relation). tab must already intern every term of
// ins. Returns nil when there is nothing to change.
func patchRelation(old *InternedRelation, ins, del []Atom, tab *symtab.Table) *InternedRelation {
	if old == nil && len(ins) == 0 {
		return nil // deletes against an absent relation: nothing to do
	}
	ar := 0
	oldRows := 0
	if old != nil {
		ar = old.Arity
		oldRows = old.Rows()
	} else {
		ar = len(ins[0].Args)
	}

	// Locate the deleted rows in the old relation via its position-0
	// sorted run (O(log n) per delete plus the equal range walk).
	delRow := make([]bool, oldRows)
	nDel := 0
	for _, a := range del {
		if r, ok := old.Find(tab, a.Args); ok && !delRow[r] {
			delRow[r] = true
			nDel++
		}
	}

	nOld := oldRows - nDel
	n := nOld + len(ins)
	out := &InternedRelation{
		Arity: ar,
		Atoms: make([]Atom, 0, n),
		IDs:   make([]symtab.ID, 0, n*ar),
	}
	rowMap := make([]int32, oldRows) // old row → new row, -1 when deleted
	next := int32(0)
	for r := 0; r < oldRows; r++ {
		if delRow[r] {
			rowMap[r] = -1
			continue
		}
		rowMap[r] = next
		next++
		out.Atoms = append(out.Atoms, old.Atoms[r])
		out.IDs = append(out.IDs, old.Row(r)...)
	}
	for _, a := range ins {
		out.Atoms = append(out.Atoms, a)
		for _, t := range a.Args {
			id, ok := tab.Lookup(t)
			if !ok {
				// Unreachable: patchView interned every insert term.
				panic(fmt.Sprintf("instance: patch insert term %s not interned", t))
			}
			out.IDs = append(out.IDs, id)
		}
	}

	// Per-position runs: the old run filtered through rowMap is still
	// sorted by (id, new row) because compaction preserves row order;
	// merge it with the sorted run of the inserted rows.
	out.perm = make([][]int32, ar)
	for pos := 0; pos < ar; pos++ {
		kept := make([]int32, 0, nOld)
		if old != nil {
			for _, r := range old.perm[pos] {
				if nr := rowMap[r]; nr >= 0 {
					kept = append(kept, nr)
				}
			}
		}
		fresh := make([]int32, len(ins))
		for i := range fresh {
			fresh[i] = int32(nOld + i)
		}
		sort.Slice(fresh, func(i, j int) bool {
			a, b := fresh[i], fresh[j]
			ida := out.IDs[int(a)*ar+pos]
			idb := out.IDs[int(b)*ar+pos]
			if ida != idb {
				return ida < idb
			}
			return a < b
		})
		pm := make([]int32, 0, n)
		i, j := 0, 0
		for i < len(kept) && j < len(fresh) {
			a, b := kept[i], fresh[j]
			ida := out.IDs[int(a)*ar+pos]
			idb := out.IDs[int(b)*ar+pos]
			if ida < idb || (ida == idb && a < b) {
				pm = append(pm, a)
				i++
			} else {
				pm = append(pm, b)
				j++
			}
		}
		pm = append(pm, kept[i:]...)
		pm = append(pm, fresh[j:]...)
		out.perm[pos] = pm
	}
	return out
}
