package instance

import (
	"sync/atomic"
)

// Overlay is a copy-on-write what-if view: a hypothetical delta
// layered over a shared base instance without copying it. The base is
// captured by reference at the epoch NewOverlay saw; the overlay is
// only meaningful while the base stays at that epoch (Stale reports a
// violated capture), which callers guarantee by not mutating the base
// for the overlay's lifetime — the semacycd server holds the
// instance's read lock across an overlay evaluation.
//
// The interned view of an overlay is produced by the same incremental
// patchView repair ApplyDelta uses, so its cost is proportional to the
// delta, not the base: untouched relations are shared with the base's
// view by pointer and the symbol table is shared outright when the
// delta introduces no new terms (else extended on a clone). Every
// relation the delta touches starts a family of its own, so a
// hypothetical relation never passes for the ancestor of a later base
// repair.
type Overlay struct {
	base      *Instance
	baseEpoch uint64
	inserts   []Atom // effective vs the base at capture, private clones
	deletes   []Atom // effective vs the base at capture, stored atoms

	view atomic.Pointer[InternedView]
}

// NewOverlay captures the instance at its current epoch and layers the
// delta over it, with ApplyDelta's validation and net semantics
// (variables rejected, arity clashes wrapped with ErrArityClash,
// duplicate / no-op / cancelled pairs dropped). The base is not
// modified.
func (ins *Instance) NewOverlay(inserts, deletes []Atom) (*Overlay, error) {
	effIns, effDel, err := ins.netDelta(inserts, deletes)
	if err != nil {
		return nil, err
	}
	return &Overlay{base: ins, baseEpoch: ins.Epoch(), inserts: effIns, deletes: effDel}, nil
}

// Base returns the shared base instance. Callers must not mutate it
// while the overlay is in use.
func (o *Overlay) Base() *Instance { return o.base }

// BaseEpoch returns the base epoch the overlay captured.
func (o *Overlay) BaseEpoch() uint64 { return o.baseEpoch }

// Stale reports whether the base has been mutated since capture; a
// stale overlay's Len, Interned and Materialize are unspecified, and
// Commit refuses it.
func (o *Overlay) Stale() bool { return o.base.Epoch() != o.baseEpoch }

// Inserts returns the effective inserted atoms; shared, do not mutate.
func (o *Overlay) Inserts() []Atom { return o.inserts }

// Deletes returns the effective deleted atoms; shared, do not mutate.
func (o *Overlay) Deletes() []Atom { return o.deletes }

// Len returns the overlay's atom count: base minus deletes plus
// inserts (all effective, so the arithmetic is exact).
func (o *Overlay) Len() int { return o.base.Len() - len(o.deletes) + len(o.inserts) }

// Interned returns the overlay's columnar view, built on first use by
// incrementally patching the base's view and cached for the overlay's
// lifetime. Concurrent callers may race to build; every build is
// equivalent and one wins the cache.
func (o *Overlay) Interned() *InternedView {
	if v := o.view.Load(); v != nil {
		return v
	}
	v := patchView(o.base.Interned(), o.inserts, o.deletes, true)
	if !o.view.CompareAndSwap(nil, v) {
		if w := o.view.Load(); w != nil {
			return w
		}
	}
	return v
}

// Materialize copies the overlay out into an independent Instance —
// the fallback for evaluators that need the row-level indexes (ByPred,
// ByPos) rather than the columnar view. O(base), so the interned path
// is preferred wherever it applies.
func (o *Overlay) Materialize() (*Instance, error) {
	out := o.base.Clone()
	for _, a := range o.deletes {
		out.Remove(a)
	}
	for _, a := range o.inserts {
		if err := out.Add(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}
