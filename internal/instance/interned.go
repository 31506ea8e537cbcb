package instance

import (
	"slices"
	"sort"
	"sync/atomic"

	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// InternedRelation is the columnar, integer-coded image of one
// predicate's atoms: the tuples as a flat row-major []symtab.ID matrix
// plus, per argument position, a sorted run — a permutation of the row
// indices ordered by (id at that position, row index) — so that "all
// rows whose position p equals id" is one binary search returning a
// contiguous range in row order. A relation holds ids only: terms
// resolve through the view's Table.
type InternedRelation struct {
	// Arity is the relation's argument count (row width).
	Arity int
	// IDs is the row-major tuple matrix: row i occupies
	// IDs[i*Arity : (i+1)*Arity]. A view built from scratch holds the
	// rows in ByPred order; ApplyDelta's repair keeps surviving rows in
	// order and appends the inserted ones.
	IDs []symtab.ID

	rows int       // tuple count; IDs alone cannot tell it at arity 0
	perm [][]int32 // perm[pos]: row indices sorted by (IDs[row*Arity+pos], row)

	// family names the chain of repairs the relation belongs to: a
	// relation built from atoms starts one, and ApplyDelta's repair of
	// the instance's own view continues it. deleted counts the rows the
	// family's repairs removed. A relation of the same family and
	// deleted count as an older one holds the older one's rows as a
	// prefix, with the same ids meaning the same terms: repairs keep
	// rows in place, append after them, and extend a Clone of the
	// predecessor's table.
	family  uint64
	deleted int
}

// families mints relation families. A counter, not a pointer to a
// zero-size value: Go may give every zero-size allocation one address.
var families atomic.Uint64

func newFamily() uint64 { return families.Add(1) }

// Rows returns the number of tuples: at arity 0, one when the relation
// holds the empty tuple.
func (r *InternedRelation) Rows() int { return r.rows }

// Appended reports whether r holds old, an earlier relation of the
// same predicate, as a prefix: r is old, or a repair of old's family
// that removed no row since old. n is old's row count, so r's rows
// [n, Rows()) are the ones appended since old; a nil old is the empty
// prefix. A nil r holds no prefix of a non-nil old, and relations of
// different families (a rebuilt view's, an overlay's) are unrelated.
func (r *InternedRelation) Appended(old *InternedRelation) (n int, ok bool) {
	switch {
	case old == nil:
		return 0, true
	case r == old:
		return old.rows, true
	case r != nil && r.family == old.family && r.deleted == old.deleted && r.rows >= old.rows:
		return old.rows, true
	}
	return 0, false
}

// Changes returns the rows r gained and lost since old, an earlier
// relation of the same predicate, counted per batch: exact within one
// family, all of r's rows for a nil old, all of old's for a nil r, and
// 0, 0 for unrelated relations, whose history is unknown.
func (r *InternedRelation) Changes(old *InternedRelation) (gained, lost int) {
	switch {
	case r == old:
		return 0, 0
	case old == nil:
		return r.rows, 0
	case r == nil:
		return 0, old.rows
	case r.family != old.family:
		return 0, 0
	}
	lost = r.deleted - old.deleted
	return r.rows - old.rows + lost, lost
}

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
		ids := make([]symtab.ID, 0, ar*len(src))
		for _, a := range src {
			for _, t := range a.Args {
				ids = append(ids, tab.Intern(t))
			}
		}
		r := &InternedRelation{Arity: ar, IDs: ids, rows: len(src), family: newFamily()}
		r.perm = make([][]int32, ar)
		for pos := 0; pos < ar; pos++ {
			pm := make([]int32, len(src))
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
