package hom

import (
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
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
//
// Core is CoreCancel without a cancel channel: a fresh Corer, whose
// result it copies into one atom slice and one argument slab.
func Core(q *cq.CQ) *cq.CQ {
	c, _ := CoreCancel(q, nil) // a nil channel never fires
	return c
}

// CoreCancel is Core that stops with stop.ErrCancelled once cancel is
// closed; a nil cancel never fires. It polls before each victim atom
// and every pollEvery nodes of a retraction search, so a long query's
// core stops within pollEvery search steps of the close.
func CoreCancel(q *cq.CQ, cancel <-chan struct{}) (*cq.CQ, error) {
	var c Corer
	atoms, err := c.Core(q.Free, q.Atoms, cancel)
	if err != nil {
		return nil, err
	}
	return &cq.CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: instance.CloneAtoms(atoms)}, nil
}

// Corer computes Core with scratch it keeps between calls, as a
// cq.Keyer does for CanonicalKey: every retraction round freezes the
// current query through one cq.Freezer into one instance it resets,
// extends one substitution, and writes the image into one of two atom
// buffers it alternates between. Once its buffers have grown, a round
// allocates only the cells of the frozen instance. The zero value is
// ready to use. A Corer is not safe for concurrent use.
type Corer struct {
	fz   cq.Freezer
	db   *instance.Instance
	init term.Subst // the free variables, each pinned to its frozen constant
	view cq.CQ      // the current query, as Freeze reads it
	// cur is the current query: the caller's atoms until the first
	// retraction (unless they hold duplicates), then one of the
	// buffers, whose atoms' arguments live in args. The next image goes
	// into buffer next, which cur never reads.
	cur   []instance.Atom
	atoms [2][]instance.Atom
	args  [2][]term.Term
	next  int
	found bool // the last enumeration yielded an image
}

// Core returns the core of the query with free variables free and body
// atoms: the atoms Core would return, in the same order. When atoms are
// duplicate-free and their own core they are returned as they are;
// otherwise the result lives in the Corer's scratch and stays valid
// until its next call. Neither argument is written. A closed cancel
// stops the search with stop.ErrCancelled.
func (c *Corer) Core(free []term.Term, atoms []instance.Atom, cancel <-chan struct{}) ([]instance.Atom, error) {
	c.cur, c.next = atoms, 0
	if hasDuplicates(atoms) {
		c.cur, c.next = c.write(0, atoms, nil), 1
	}
	// Each retraction strictly shrinks the query, which keeps at least
	// one atom, so the last of these rounds finds none.
	for range len(c.cur) {
		shrunk, err := c.retractOnce(free, cancel)
		if err != nil {
			return nil, err
		}
		if !shrunk {
			break
		}
	}
	return c.cur, nil
}

// hasDuplicates reports whether two of the atoms are equal.
func hasDuplicates(atoms []instance.Atom) bool {
	for i, a := range atoms {
		if slices.ContainsFunc(atoms[:i], a.Equal) {
			return true
		}
	}
	return false
}

// write fills buffer n with the atoms of src, each variable mapped by h
// (nil for none) and a frozen constant it maps to thawed back to its
// variable, other terms unchanged, and drops duplicates, keeping first
// occurrences. It returns the buffer's atoms.
func (c *Corer) write(n int, src []instance.Atom, h term.Subst) []instance.Atom {
	nargs := 0
	for _, a := range src {
		nargs += len(a.Args)
	}
	// Sized once, the slab never moves while the atoms window it.
	out, slab := c.atoms[n][:0], slices.Grow(c.args[n][:0], nargs)
	for _, a := range src {
		start := len(slab)
		for _, t := range a.Args {
			if h != nil && t.IsVar() {
				if t = h.Resolve(t); cq.IsFrozenConst(t) {
					t = cq.Thaw(t)
				}
			}
			slab = append(slab, t)
		}
		img := instance.Atom{Pred: a.Pred, Args: slab[start:len(slab):len(slab)]}
		if slices.ContainsFunc(out, img.Equal) {
			slab = slab[:start]
			continue
		}
		out = append(out, img)
	}
	c.atoms[n], c.args[n] = out, slab
	return out
}

// retractOnce searches for an endomorphism of the current query that
// avoids at least one atom; on success the image becomes the current
// query. The query is frozen once, and each victim atom is excluded
// from the enumeration rather than removed from a copy; the enumeration
// visits candidates in the order the copy would hand them out, so the
// same retraction is found.
func (c *Corer) retractOnce(free []term.Term, cancel <-chan struct{}) (bool, error) {
	cur := c.cur
	c.view = cq.CQ{Free: free, Atoms: cur}
	if c.db == nil {
		c.db = instance.NewSized(len(cur), c.view.MaxArity())
	}
	frozen := c.fz.Freeze(&c.view, c.db)
	// Free variables must map to themselves; a Boolean query needs no
	// substitution to start from.
	var init term.Subst
	if len(free) > 0 {
		if c.init == nil {
			c.init = term.NewSubst()
		}
		clear(c.init)
		for i, x := range free {
			c.init[x] = frozen[i]
		}
		init = c.init
	}
	for _, victim := range cur {
		if stop.Cancelled(cancel) {
			return false, stop.ErrCancelled
		}
		// Duplicate-free queries always contain their frozen atoms
		// (freezing is injective), so the lookup cannot miss.
		frozenVictim, ok := frozenAtom(c.db, victim)
		if !ok {
			continue
		}
		c.found = false
		enumerateWithout(cur, c.db, init, frozenVictim, cancel, c.image)
		if c.found && len(c.atoms[c.next]) < len(cur) {
			c.cur, c.next = c.atoms[c.next], 1-c.next
			return true, nil
		}
	}
	if stop.Cancelled(cancel) {
		return false, stop.ErrCancelled // the last enumeration may have stopped early
	}
	return false, nil
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

// image writes the image of the current query under the endomorphism h
// found over its frozen instance into buffer next, and stops the
// enumeration. The image is built in two stages that never compose
// variable to variable (a swap x↦y, y↦x would be cyclic): each variable
// takes the term h maps it to, and a frozen constant thaws back to its
// variable. Duplicate image atoms merge, keeping first occurrences.
func (c *Corer) image(h term.Subst) bool {
	c.write(c.next, c.cur, h)
	c.found = true
	return false
}

// IsCore reports whether q equals its own core (up to atom count).
func IsCore(q *cq.CQ) bool {
	return Core(q).Size() == q.DedupAtoms().Size()
}
