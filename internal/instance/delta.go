package instance

import (
	"errors"
	"fmt"
	"sort"

	"semacyclic/internal/symtab"
)

// This file is the incremental-mutation layer: ApplyDelta applies an
// atomic batch of inserts and deletes, advancing a per-instance epoch,
// and *repairs* the cached columnar InternedView instead of
// invalidating it — only the touched per-predicate relations are
// rebuilt, untouched ones are shared by pointer with the previous view,
// and the symbol table is shared outright when the batch introduces no
// new terms (or extended on a symtab.Clone when it does, so ids minted
// by the old view stay valid in the new one). A repaired relation
// keeps its predecessor's family and counts the rows it removed, so an
// incremental evaluator tells what changed since an older view from
// the views alone (InternedRelation.Appended).

// ErrArityClash is wrapped by ApplyDelta (and NewOverlay) when a batch
// atom uses a predicate with an arity conflicting with the instance
// schema or with another atom of the same batch. Callers mapping delta
// failures to protocol errors (semacycd answers 409) test for it with
// errors.Is.
var ErrArityClash = errors.New("instance: arity clash")

// ErrStaleOverlay is returned by Overlay.Commit when the base has been
// mutated since the overlay captured it.
var ErrStaleOverlay = errors.New("instance: overlay base changed since capture")

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
// incrementally, so incremental evaluators holding reducer state from
// an earlier view can repair it from the rows the batch appended
// instead of recomputing.
//
// ApplyDelta is NewOverlay followed by Commit; callers that must
// inspect the net batch before applying it (semacycd's size limit)
// make the two calls themselves.
//
// Like every Instance mutation, ApplyDelta is not safe for concurrent
// use with other mutations or readers of the live maps; callers
// serialize (the semacycd registry holds a per-entry write lock).
func (ins *Instance) ApplyDelta(inserts, deletes []Atom) (DeltaResult, error) {
	ov, err := ins.NewOverlay(inserts, deletes)
	if err != nil {
		return DeltaResult{}, err
	}
	return ov.Commit()
}

// Commit applies the overlay's net batch to the base as one ApplyDelta
// batch: the epoch advances by one and a cached interned view of the
// base is repaired. A stale overlay
// refuses with ErrStaleOverlay and changes nothing. Committing moves
// the base's epoch, so an overlay commits at most once. Commit is a
// mutation of the base, serialized like ApplyDelta.
func (o *Overlay) Commit() (DeltaResult, error) {
	if o.Stale() {
		return DeltaResult{}, ErrStaleOverlay
	}
	ins, effIns, effDel := o.base, o.inserts, o.deletes
	for _, a := range effDel {
		h := hashAtom(a.Pred, a.Args)
		ins.removeIndexed(h, ins.atoms.find(h, a.Pred, a.Args))
	}
	for _, a := range effIns {
		if err := ins.sch.Add(a.Pred, len(a.Args)); err != nil {
			// Unreachable: netDelta validated arities against the schema
			// at the overlay's epoch, which is still the base's.
			return DeltaResult{}, fmt.Errorf("%w: %w", ErrArityClash, err)
		}
		ins.addIndexed(hashAtom(a.Pred, a.Args), a)
	}
	ins.epoch++
	if old := ins.interned.Load(); old != nil && len(effIns)+len(effDel) > 0 {
		ins.interned.Store(patchView(old, effIns, effDel, false))
	}
	return DeltaResult{Epoch: ins.epoch, Inserted: len(effIns), Deleted: len(effDel)}, nil
}

// netDelta validates a batch and computes its effective insert/delete
// lists against the current atom set: deduplicated, presence-checked,
// delete-then-reinsert pairs cancelled. Effective inserts come back as
// private copies ready for indexing, their arguments in one slab;
// effective deletes are the stored atoms. The instance is not modified.
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

	// Dedup both lists in first-occurrence order: the repaired view
	// keeps the batch order.
	insSet, delSet := dedupAtoms(inserts), dedupAtoms(deletes)
	for _, a := range delSet.slots {
		h := hashAtom(a.Pred, a.Args)
		if s := ins.atoms.find(h, a.Pred, a.Args); s >= 0 && insSet.find(h, a.Pred, a.Args) < 0 {
			effDel = append(effDel, ins.atoms.slots[s])
		}
	}
	for _, a := range insSet.slots {
		if ins.SlotOf(a.Pred, a.Args) < 0 {
			effIns = append(effIns, a)
		}
	}
	ownArgs(effIns) // the overlay owns its inserts
	return effIns, effDel, nil
}

// dedupAtoms returns the distinct atoms of the batch as a set whose
// slots hold them in first-occurrence order.
func dedupAtoms(atoms []Atom) atomSet {
	set := newAtomSet(len(atoms))
	for _, a := range atoms {
		if h := hashAtom(a.Pred, a.Args); set.find(h, a.Pred, a.Args) < 0 {
			set.insert(h, a)
		}
	}
	return set
}

// patchView builds the successor of old after applying the effective
// batch: untouched relations are shared by pointer, touched ones are
// rebuilt by order-preserving compaction plus appended inserts, and
// the symbol table is shared when the batch adds no new terms (else
// extended on a Clone). A touched relation inherits its predecessor's
// family, except in a detached patch — an overlay's, whose
// hypothetical relations must never pass for an ancestor of a later
// base repair — which mints a fresh family for each. Pure: old is not
// modified, so readers holding it stay consistent.
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
					tab = old.Table.Clone()
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
		if r := patchRelation(old.rels[p], pd.ins, pd.del, tab, detached); r != nil {
			rels[p] = r
		} else {
			delete(rels, p)
		}
	}
	return &InternedView{Table: tab, rels: rels}
}

// patchRelation rebuilds one predicate's columnar relation after the
// batch: surviving rows keep their relative order (an order-preserving
// compaction, so the filtered old per-position runs stay sorted and can
// be merged with the sorted runs of the appended inserts instead of
// re-sorting the whole relation). tab must already intern every term of
// ins. The result continues old's family and adds the removed rows to
// its deleted count, unless detached or old is nil: then it starts a
// family of its own. Returns nil when the relation ends empty, as a
// view built from scratch holds no relation for an absent predicate.
func patchRelation(old *InternedRelation, ins, del []Atom, tab *symtab.Table, detached bool) *InternedRelation {
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
	if n == 0 {
		return nil
	}
	out := &InternedRelation{
		Arity: ar,
		IDs:   make([]symtab.ID, 0, n*ar),
		rows:  n,
	}
	if old != nil && !detached {
		out.family, out.deleted = old.family, old.deleted+nDel
	} else {
		out.family = newFamily()
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
		out.IDs = append(out.IDs, old.Row(r)...)
	}
	for _, a := range ins {
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
