// Package instance provides atoms and (finite) instances over a
// relational schema: the substrate every algorithm in this repository
// runs on. An Instance is an indexed set of atoms over constants and
// labelled nulls; a database in the paper's sense is simply a finite
// Instance whose atoms mention no variables.
package instance

import (
	"slices"
	"sort"
	"strings"

	"semacyclic/internal/term"
)

// Atom is a predicate applied to a tuple of terms, e.g. R(a, ⊥1, ?x).
// Whether variables are permitted depends on context: instances reject
// them, queries require them.
type Atom struct {
	Pred string
	Args []term.Term
}

// NewAtom builds an atom; the args slice is copied so callers may reuse
// their buffer.
func NewAtom(pred string, args ...term.Term) Atom {
	cp := make([]term.Term, len(args))
	copy(cp, args)
	return Atom{Pred: pred, Args: cp}
}

// Key returns a canonical string identity for the atom, usable as a map
// key. Two atoms have equal keys iff they are equal.
//
// Layout: the predicate, then per argument a NUL, the term's kind byte
// and its name. A NUL inside a predicate or a name is written as NUL
// followed by keyNULEscape, a byte no kind takes, so every other NUL
// starts an argument and the key is injective; keys of NUL-free atoms
// are their plain concatenation. Key is a map identity only: nothing
// orders atoms by it (Instance.Atoms sorts by CompareAtoms).
func (a Atom) Key() string {
	var arr [64]byte
	return string(a.AppendKey(arr[:0]))
}

// keyNULEscape follows a NUL that belongs to a predicate or term name
// in an atom key. Kind bytes are 0, 1 and 2, so it never starts an
// argument.
const keyNULEscape = 0xff

// appendKeyName appends name to an atom key, escaping its NUL bytes.
func appendKeyName(buf []byte, name string) []byte {
	for {
		i := strings.IndexByte(name, 0)
		if i < 0 {
			return append(buf, name...)
		}
		buf = append(buf, name[:i+1]...)
		buf = append(buf, keyNULEscape)
		name = name[i+1:]
	}
}

// AppendKey appends the atom's canonical key (the bytes of Key) to buf
// and returns the extended slice. Hot paths that probe key-indexed maps
// reuse one buffer across atoms and look up with string(buf), which the
// compiler compiles to an allocation-free map access.
func (a Atom) AppendKey(buf []byte) []byte {
	buf = appendKeyName(buf, a.Pred)
	for _, t := range a.Args {
		buf = appendKeyName(append(buf, 0, byte(t.K)), t.Name)
	}
	return buf
}

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Apply returns the atom with the substitution applied to every
// argument (resolving chains).
func (a Atom) Apply(s term.Subst) Atom {
	return Atom{Pred: a.Pred, Args: s.ResolveTuple(a.Args)}
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	return Atom{Pred: a.Pred, Args: append([]term.Term(nil), a.Args...)}
}

// CloneAtoms returns an independent copy of atoms: one atom slice and
// one slab holding every atom's arguments.
func CloneAtoms(atoms []Atom) []Atom {
	out := slices.Clone(atoms)
	ownArgs(out)
	return out
}

// ownArgs points each atom's arguments at a private copy, all in one
// new slab, so the atoms share no argument memory with their source.
func ownArgs(atoms []Atom) {
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
	}
	slab := make([]term.Term, 0, n)
	for i, a := range atoms {
		start := len(slab)
		slab = append(slab, a.Args...)
		atoms[i].Args = slab[start:len(slab):len(slab)]
	}
}

// Terms returns the distinct terms of the atom in order of first
// occurrence. Arities are small, so duplicates are found by scanning
// the output rather than through a set.
func (a Atom) Terms() []term.Term {
	out := make([]term.Term, 0, len(a.Args))
	for _, t := range a.Args {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []term.Term {
	out := a.Terms()
	vs := out[:0]
	for _, t := range out {
		if t.IsVar() {
			vs = append(vs, t)
		}
	}
	return vs
}

// HasVars reports whether any argument is a variable.
func (a Atom) HasVars() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return true
		}
	}
	return false
}

// String renders the atom as Pred(arg1,...,argn).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// SortAtoms orders atoms canonically (by predicate, then argwise term
// order) in place, for deterministic output.
func SortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return CompareAtoms(atoms[i], atoms[j]) < 0 })
}

// CompareAtoms totally orders atoms: by predicate name, arity, then
// argument terms left to right.
func CompareAtoms(a, b Atom) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	if len(a.Args) != len(b.Args) {
		if len(a.Args) < len(b.Args) {
			return -1
		}
		return 1
	}
	for i := range a.Args {
		if c := a.Args[i].Compare(b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}
