package hom

import (
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// internMinAtoms is the instance size below which building the interned
// view is not worth its O(n log n) construction: decision-path targets
// (frozen queries, chase instances) are small and churn under mutation,
// so they stay on the map path, while database-scale targets amortize
// the build across an enumeration's many probes.
const internMinAtoms = 128

// PrepareTarget builds the target's interned columnar view when the
// target is large enough to pay off. Evaluation entry points (Evaluate,
// EvaluateBool, core's generic evaluator) call it once per database;
// decision internals deliberately do not, so churning chase instances
// never thrash the view cache. Enumerate uses the interned path exactly
// when a view is already cached.
func PrepareTarget(target *instance.Instance) {
	if target.Len() >= internMinAtoms {
		target.Interned()
	}
}

// candSet is one atom's candidate list: either an explicit atom slice
// (the ByPred/ByPos map path) or a contiguous slice of an interned
// sorted run. rel == nil discriminates the slice case.
type candSet struct {
	list []instance.Atom
	rel  *instance.InternedRelation
	pos  int // sorted-run position; -1 means whole relation in row order
	lo   int
	n    int
	// hole is the list index of an atom read as removed, whose slot the
	// list's last atom fills (see candidatesWithout); -1 for none. Only
	// the slice case has one.
	hole int
}

func (c *candSet) at(k int) instance.Atom {
	if c.rel == nil {
		if k == c.hole {
			return c.list[len(c.list)-1]
		}
		return c.list[k]
	}
	if c.pos < 0 {
		return c.rel.Atoms[c.lo+k]
	}
	return c.rel.Atoms[c.rel.RowAt(c.pos, c.lo+k)]
}

// pickCandidates selects the most selective candidate set for pattern
// atom a under sub: the hash-free pinned-position pre-filter when the
// target has a cached interned view, the ByPred/ByPos map probe
// otherwise. Both paths choose the same candidate set by the same
// strictly-smaller rule, so enumeration results never depend on which
// path ran.
func pickCandidates(target *instance.Instance, a instance.Atom, sub term.Subst) candSet {
	if iv := target.InternedCached(); iv != nil {
		return pickInterned(iv, a, sub)
	}
	list := candidates(target, a, sub)
	return candSet{list: list, n: len(list), hole: -1}
}

// pickInterned is the integer-coded candidate probe: each pinned
// (constant or bound) position costs one table lookup plus one binary
// search over the position's sorted run — no per-probe hashing of a
// (pred, pos, term) key, no allocations.
func pickInterned(iv *instance.InternedView, a instance.Atom, sub term.Subst) candSet {
	rel := iv.Relation(a.Pred)
	if rel == nil {
		return candSet{}
	}
	best := candSet{rel: rel, pos: -1, n: rel.Rows()}
	for i, t := range a.Args {
		img, ok := pinned(t, sub)
		if !ok {
			continue
		}
		id, ok := iv.Table.Lookup(img)
		if !ok {
			// The pinned value does not occur in the target at all: no
			// candidate can match.
			return candSet{rel: rel, pos: -1, n: 0}
		}
		lo, hi := rel.Range(i, id)
		if hi-lo < best.n {
			best = candSet{rel: rel, pos: i, lo: lo, n: hi - lo}
		}
	}
	return best
}
