package hom

import (
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Core computes the core of q: the minimal (fewest atoms) CQ equivalent
// to q, unique up to renaming [Hell–Nešetřil]. Free variables are held
// fixed, as required for answer-preserving minimization.
//
// The algorithm repeatedly looks for a proper retraction: an
// endomorphism of q that avoids some atom. When one exists the query is
// replaced by its image and the search restarts; when none exists the
// query is its own core. Worst-case exponential (the problem is
// NP-hard) but fast on the small queries the paper's problems handle.
func Core(q *cq.CQ) *cq.CQ {
	cur := q.DedupAtoms()
	//semalint:allow cancelpoll(each retraction strictly shrinks the query; at most |atoms| rounds)
	for {
		next, shrunk := retractOnce(cur)
		if !shrunk {
			return cur
		}
		cur = next
	}
}

// retractOnce searches for an endomorphism of cur that avoids at least
// one atom; on success it returns the image query. cur is frozen once,
// and each victim atom is excluded from the enumeration rather than
// removed from a copy; the enumeration visits candidates in the order
// the copy would hand them out, so the same retraction is found.
func retractOnce(cur *cq.CQ) (*cq.CQ, bool) {
	db, _ := cur.Freeze()
	// Free variables must map to themselves.
	init := term.NewSubst()
	for _, x := range cur.Free {
		init[x] = cq.FrozenConst(x)
	}
	var next *cq.CQ
	yield := func(h term.Subst) bool {
		next = image(cur, h)
		return false
	}
	for _, victim := range cur.Atoms {
		// Duplicate-free queries always contain their frozen atoms
		// (freezing is injective), so the lookup cannot miss.
		frozenVictim, ok := frozenAtom(db, victim)
		if !ok {
			continue
		}
		enumerateWithout(cur.Atoms, db, init, frozenVictim, yield)
		if next != nil && next.Size() < cur.Size() {
			return next, true
		}
		next = nil
	}
	return nil, false
}

// frozenAtom returns the atom of cur's frozen instance db that freezes
// a: a's variables read as their frozen constants, other terms as
// themselves. It compares names in place, building no frozen constant.
func frozenAtom(db *instance.Instance, a instance.Atom) (instance.Atom, bool) {
	for _, f := range db.ByPred(a.Pred) {
		if freezes(a, f) {
			return f, true
		}
	}
	return instance.Atom{}, false
}

// freezes reports whether f is a with every variable frozen.
func freezes(a, f instance.Atom) bool {
	if len(a.Args) != len(f.Args) {
		return false
	}
	for i, t := range a.Args {
		u := f.Args[i]
		if !t.IsVar() {
			if u != t {
				return false
			}
			continue
		}
		if !cq.IsFrozenConst(u) || u.Name[len(term.FrozenPrefix):] != t.Name {
			return false
		}
	}
	return true
}

// image builds the image of cur under the endomorphism h found over its
// frozen instance, in two stages that never compose variable to
// variable (a swap x↦y, y↦x would be cyclic): each variable takes the
// term h maps it to, and a frozen constant thaws back to its variable.
// Other terms stay. Duplicate image atoms merge, keeping first
// occurrences, and the arguments share one slab.
func image(cur *cq.CQ, h term.Subst) *cq.CQ {
	nargs := 0
	for _, a := range cur.Atoms {
		nargs += len(a.Args)
	}
	slab := make([]term.Term, 0, nargs)
	out := &cq.CQ{Name: cur.Name, Free: append([]term.Term(nil), cur.Free...), Atoms: make([]instance.Atom, 0, len(cur.Atoms))}
	for _, a := range cur.Atoms {
		start := len(slab)
		for _, t := range a.Args {
			if t.IsVar() {
				if t = h.Resolve(t); cq.IsFrozenConst(t) {
					t = cq.Thaw(t)
				}
			}
			slab = append(slab, t)
		}
		img := instance.Atom{Pred: a.Pred, Args: slab[start:len(slab):len(slab)]}
		if slices.ContainsFunc(out.Atoms, img.Equal) {
			slab = slab[:start]
			continue
		}
		out.Atoms = append(out.Atoms, img)
	}
	return out
}

// IsCore reports whether q equals its own core (up to atom count).
func IsCore(q *cq.CQ) bool {
	return Core(q).Size() == q.DedupAtoms().Size()
}
