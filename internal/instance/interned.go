package instance

import (
	"slices"
	"sort"

	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// InternedRelation is the columnar, integer-coded image of one
// predicate's atoms: the tuples as a flat row-major []symtab.ID matrix
// plus, per argument position, a sorted run — a permutation of the row
// indices ordered by (id at that position, row index) — so that "all
// rows whose position p equals id" is one binary search returning a
// contiguous range, in the exact order the ByPos list would have
// yielded them.
type InternedRelation struct {
	// Arity is the relation's argument count (row width).
	Arity int
	// Atoms holds the relation's atoms; row i of IDs encodes Atoms[i].
	// The order is the ByPred insertion order at build time (a private
	// copy: later Instance mutations cannot corrupt it).
	Atoms []Atom
	// IDs is the row-major tuple matrix: row i occupies
	// IDs[i*Arity : (i+1)*Arity].
	IDs []symtab.ID

	perm [][]int32 // perm[pos]: row indices sorted by (IDs[row*Arity+pos], row)
}

// Rows returns the number of tuples.
func (r *InternedRelation) Rows() int { return len(r.Atoms) }

// Row returns the interned tuple of row i. The slice aliases the
// relation's matrix; callers must not mutate it.
func (r *InternedRelation) Row(i int) []symtab.ID {
	return r.IDs[i*r.Arity : (i+1)*r.Arity]
}

// Range returns the half-open index range [lo, hi) into the sorted run
// of position pos holding the rows whose argument at pos equals id.
// Resolve entries to row numbers with RowAt. The probe is two
// hand-rolled binary searches: no closures, no allocations.
func (r *InternedRelation) Range(pos int, id symtab.ID) (lo, hi int) {
	pm := r.perm[pos]
	a, b := 0, len(pm)
	for a < b {
		m := int(uint(a+b) >> 1)
		if r.IDs[int(pm[m])*r.Arity+pos] < id {
			a = m + 1
		} else {
			b = m
		}
	}
	lo = a
	b = len(pm)
	for a < b {
		m := int(uint(a+b) >> 1)
		if r.IDs[int(pm[m])*r.Arity+pos] <= id {
			a = m + 1
		} else {
			b = m
		}
	}
	return lo, a
}

// RowAt maps an index of position pos's sorted run (as returned by
// Range) back to a row number.
func (r *InternedRelation) RowAt(pos, k int) int { return int(r.perm[pos][k]) }

// Find returns the row holding the ground tuple args, with its terms
// looked up in tab, by a walk of the position-0 sorted run; a relation
// of arity 0 holds the empty tuple as its only row. A nil relation, an
// arity mismatch or a term tab never interned proves absence. A
// relation holds each tuple at most once, so the row is unique.
func (r *InternedRelation) Find(tab *symtab.Table, args []term.Term) (row int, ok bool) {
	if r == nil || r.Arity != len(args) || r.Rows() == 0 {
		return 0, false
	}
	if r.Arity == 0 {
		return 0, true
	}
	ids := make([]symtab.ID, len(args))
	for i, t := range args {
		id, hit := tab.Lookup(t)
		if !hit {
			return 0, false
		}
		ids[i] = id
	}
	lo, hi := r.Range(0, ids[0])
	for k := lo; k < hi; k++ {
		row = r.RowAt(0, k)
		if slices.Equal(r.Row(row)[1:], ids[1:]) {
			return row, true
		}
	}
	return 0, false
}

// InternedView is the integer-coded index of one instance snapshot: an
// interner covering every term in the instance plus one columnar
// relation per predicate. Views are immutable once built and safe for
// concurrent readers.
type InternedView struct {
	// Table interns every term occurring in the instance. Query-side
	// terms are translated once per evaluation via Lookup; a miss proves
	// the term matches nothing.
	Table *symtab.Table

	rels map[string]*InternedRelation
}

// Relation returns the columnar relation of pred, or nil when the
// instance holds no atoms of that predicate.
func (v *InternedView) Relation(pred string) *InternedRelation { return v.rels[pred] }

// Interned returns the instance's interned columnar view, building and
// caching it on first use. Any mutation (Add, Remove, and everything
// built on them) invalidates the cache, so a view obtained after the
// last mutation reflects the current atoms. Concurrent readers may
// race to build; both builds are equivalent (ids never influence
// observable output) and one wins the cache.
func (ins *Instance) Interned() *InternedView {
	if v := ins.interned.Load(); v != nil {
		return v
	}
	v := buildInterned(ins)
	if !ins.interned.CompareAndSwap(nil, v) {
		if w := ins.interned.Load(); w != nil {
			return w
		}
	}
	return v
}

// InternedCached returns the cached view if one is already built, nil
// otherwise. Callers probing churning instances (the chase's growing
// result, search states) use this to avoid rebuilding the view after
// every mutation; evaluation entry points force the build via Interned.
func (ins *Instance) InternedCached() *InternedView { return ins.interned.Load() }

// invalidateInterned drops the cached view; called by every mutation.
func (ins *Instance) invalidateInterned() { ins.interned.Store(nil) }

// buildInterned constructs the view. Predicates are interned in sorted
// order and tuples in insertion order, so the same atom set added in
// the same order yields the same ids — not that anything may depend on
// that: ids stay invisible in all observable output.
func buildInterned(ins *Instance) *InternedView {
	tab := symtab.New()
	preds := ins.predNames()
	rels := make(map[string]*InternedRelation, len(preds))
	for _, p := range preds {
		src := ins.byPred[p]
		ar := len(src[0].Args)
		atoms := make([]Atom, len(src))
		copy(atoms, src)
		ids := make([]symtab.ID, 0, ar*len(atoms))
		for _, a := range atoms {
			for _, t := range a.Args {
				ids = append(ids, tab.Intern(t))
			}
		}
		r := &InternedRelation{Arity: ar, Atoms: atoms, IDs: ids}
		r.perm = make([][]int32, ar)
		for pos := 0; pos < ar; pos++ {
			pm := make([]int32, len(atoms))
			for i := range pm {
				pm[i] = int32(i)
			}
			sort.Slice(pm, func(i, j int) bool {
				a, b := pm[i], pm[j]
				ida := ids[int(a)*ar+pos]
				idb := ids[int(b)*ar+pos]
				if ida != idb {
					return ida < idb
				}
				return a < b // stable by row: Range yields insertion order
			})
			r.perm[pos] = pm
		}
		rels[p] = r
	}
	return &InternedView{Table: tab, rels: rels}
}
