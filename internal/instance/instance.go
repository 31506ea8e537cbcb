package instance

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"semacyclic/internal/scan"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// posKey indexes atoms by (predicate, argument position, term).
type posKey struct {
	pred string
	pos  int
	t    term.Term
}

// Instance is a finite set of atoms over constants and labelled nulls,
// with secondary indexes for join processing:
//
//   - a per-predicate list, and
//   - a per-(predicate, position, term) list,
//
// both maintained incrementally on Add/Remove. The zero value is not
// usable; call New.
type Instance struct {
	atoms  map[string]Atom   `sem:"guardedby(owner)"` // canonical key → atom
	byPred map[string][]Atom `sem:"guardedby(owner)"` // predicate → atoms (order of insertion, compacted on removal)
	byPos  map[posKey][]Atom `sem:"guardedby(owner)"`
	sch    *schema.Schema    `sem:"guardedby(owner)"` // lazily grown signature of the instance

	// interned caches the columnar integer-coded view (see interned.go);
	// dropped on every bare mutation, rebuilt lazily by Interned.
	// ApplyDelta instead repairs a cached view in place of dropping it.
	interned atomic.Pointer[InternedView]

	// epoch counts mutations: every Add/Remove that changes the atom
	// set bumps it by one, every ApplyDelta batch by one. journal keeps
	// the recent ApplyDelta batches (see delta.go) so incremental
	// evaluators can catch up from an older epoch; bare mutations
	// truncate it, forcing those evaluators to recompute.
	epoch        uint64         `sem:"guardedby(owner)"`
	journal      []journalEntry `sem:"guardedby(owner)"`
	journalAtoms int            `sem:"guardedby(owner)"`
}

// New returns an empty instance.
func New() *Instance {
	return &Instance{
		atoms:  make(map[string]Atom),
		byPred: make(map[string][]Atom),
		byPos:  make(map[posKey][]Atom),
		sch:    schema.New(),
	}
}

// FromAtoms builds an instance containing the given atoms. Variables in
// any atom are rejected: instances range over C ∪ N only.
func FromAtoms(atoms ...Atom) (*Instance, error) {
	ins := New()
	for _, a := range atoms {
		if err := ins.Add(a); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// MustFromAtoms is FromAtoms that panics on error; for tests and
// literals whose validity is static.
func MustFromAtoms(atoms ...Atom) *Instance {
	ins, err := FromAtoms(atoms...)
	if err != nil {
		panic(err)
	}
	return ins
}

// Add inserts the atom, rejecting variables and arity conflicts.
// Adding an existing atom is a no-op. It reports whether the atom was
// newly inserted.
func (ins *Instance) Add(a Atom) error {
	_, err := ins.AddReport(a)
	return err
}

// AddReport is Add returning also whether the atom was new.
func (ins *Instance) AddReport(a Atom) (added bool, err error) {
	if a.HasVars() {
		return false, fmt.Errorf("instance: atom %s contains a variable", a)
	}
	if err := ins.sch.Add(a.Pred, len(a.Args)); err != nil {
		return false, err
	}
	k := a.Key()
	if _, ok := ins.atoms[k]; ok {
		return false, nil
	}
	ins.addIndexed(k, a.Clone())
	ins.noteBareMutation()
	return true, nil
}

// addIndexed inserts the already-validated, already-cloned atom into
// the atom map and both indexes. It does not touch the epoch, journal
// or interned view — callers decide between bare-mutation and delta
// bookkeeping.
func (ins *Instance) addIndexed(k string, a Atom) {
	ins.atoms[k] = a
	ins.byPred[a.Pred] = append(ins.byPred[a.Pred], a)
	for i, t := range a.Args {
		pk := posKey{a.Pred, i, t}
		ins.byPos[pk] = append(ins.byPos[pk], a)
	}
}

// Remove deletes the atom if present, reporting whether it was there.
func (ins *Instance) Remove(a Atom) bool {
	k := a.Key()
	stored, ok := ins.atoms[k]
	if !ok {
		return false
	}
	ins.removeIndexed(k, stored)
	ins.noteBareMutation()
	return true
}

// removeIndexed is the index-maintenance half of Remove; the same
// epoch/journal/view caveat as addIndexed applies.
func (ins *Instance) removeIndexed(k string, stored Atom) {
	delete(ins.atoms, k)
	ins.byPred[stored.Pred] = dropAtom(ins.byPred[stored.Pred], stored)
	for i, t := range stored.Args {
		pk := posKey{stored.Pred, i, t}
		ins.byPos[pk] = dropAtom(ins.byPos[pk], stored)
		if len(ins.byPos[pk]) == 0 {
			delete(ins.byPos, pk)
		}
	}
}

// noteBareMutation records a single-atom Add/Remove: the epoch moves,
// the delta journal is truncated (there is no batch to journal), and
// the cached interned view is dropped for a lazy full rebuild.
func (ins *Instance) noteBareMutation() {
	ins.epoch++
	ins.journal = nil
	ins.journalAtoms = 0
	ins.invalidateInterned()
}

// dropAtom removes a from the list by structural equality, avoiding the
// per-element Key allocations the removal path used to pay.
func dropAtom(list []Atom, a Atom) []Atom {
	for i := range list {
		if list[i].Equal(a) {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// Has reports membership.
func (ins *Instance) Has(a Atom) bool {
	_, ok := ins.atoms[a.Key()]
	return ok
}

// Len returns the number of atoms.
func (ins *Instance) Len() int { return len(ins.atoms) }

// Schema returns the signature grown from the atoms added so far. The
// returned schema is live; callers must not mutate it.
func (ins *Instance) Schema() *schema.Schema { return ins.sch }

// Atoms returns all atoms in canonical order.
func (ins *Instance) Atoms() []Atom {
	out := make([]Atom, 0, len(ins.atoms))
	for _, a := range ins.atoms {
		out = append(out, a)
	}
	SortAtoms(out)
	return out
}

// AtomsUnordered returns all atoms in arbitrary order, avoiding the
// sort cost of Atoms for hot paths.
func (ins *Instance) AtomsUnordered() []Atom {
	out := make([]Atom, 0, len(ins.atoms))
	for _, a := range ins.atoms {
		out = append(out, a)
	}
	return out
}

// ByPred returns the atoms with the given predicate. The returned slice
// is shared; callers must not mutate it.
func (ins *Instance) ByPred(pred string) []Atom { return ins.byPred[pred] }

// ByPos returns the atoms whose argument at position pos of predicate
// pred equals t. The returned slice is shared; callers must not mutate it.
func (ins *Instance) ByPos(pred string, pos int, t term.Term) []Atom {
	return ins.byPos[posKey{pred, pos, t}]
}

// Terms returns every distinct term occurring in the instance, in
// canonical order.
func (ins *Instance) Terms() []term.Term {
	seen := make(map[term.Term]bool)
	for _, a := range ins.atoms {
		for _, t := range a.Args {
			seen[t] = true
		}
	}
	out := make([]term.Term, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Nulls returns the distinct labelled nulls of the instance in
// canonical order.
func (ins *Instance) Nulls() []term.Term {
	all := ins.Terms()
	out := all[:0]
	for _, t := range all {
		if t.IsNull() {
			out = append(out, t)
		}
	}
	return out
}

// Clone returns an independent copy. The atom map and every ByPred and
// ByPos list are copied in their current order, so the clone hands out
// candidates exactly as ins does and index order stays a function of
// the operation history. The stored atoms are shared: nothing writes a
// stored atom's Args. Like an instance filled by Add, the clone is at
// epoch Len() with an empty journal and no interned view.
func (ins *Instance) Clone() *Instance {
	out := &Instance{
		atoms:  make(map[string]Atom, len(ins.atoms)),
		byPred: make(map[string][]Atom, len(ins.byPred)),
		byPos:  make(map[posKey][]Atom, len(ins.byPos)),
		sch:    schema.New(),
		epoch:  uint64(len(ins.atoms)),
	}
	for k, a := range ins.atoms {
		out.atoms[k] = a
	}
	for _, p := range ins.predNames() {
		list := ins.byPred[p]
		out.byPred[p] = slices.Clone(list)
		if err := out.sch.Add(p, len(list[0].Args)); err != nil {
			panic(err) // cannot happen: one arity per predicate
		}
	}
	for pk, list := range ins.byPos {
		out.byPos[pk] = slices.Clone(list)
	}
	return out
}

// predNames returns the predicates holding atoms, in sorted order.
func (ins *Instance) predNames() []string {
	names := make([]string, 0, len(ins.byPred))
	for p, atoms := range ins.byPred {
		if len(atoms) > 0 {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	return names
}

// ReplaceTerm rewrites every occurrence of old to new, re-indexing the
// affected atoms. It is the primitive the egd chase uses to identify
// nulls. Atoms that collapse onto existing ones are merged. Atoms are
// rewritten in sorted predicate order, each predicate's in ByPred
// order, so the resulting index order is deterministic.
func (ins *Instance) ReplaceTerm(old, new term.Term) {
	if old == new {
		return
	}
	var touched []Atom
	for _, p := range ins.predNames() {
		for _, a := range ins.byPred[p] {
			if slices.Contains(a.Args, old) {
				touched = append(touched, a)
			}
		}
	}
	for _, a := range touched {
		ins.Remove(a)
		na := a.Clone()
		for i := range na.Args {
			if na.Args[i] == old {
				na.Args[i] = new
			}
		}
		if err := ins.Add(na); err != nil {
			panic(err) // replacement cannot introduce variables here
		}
	}
}

// Union adds every atom of other into ins (mutating ins) and returns ins.
// Atoms are added in sorted predicate order, each predicate's in other's
// ByPred order, so the resulting index order is deterministic.
func (ins *Instance) Union(other *Instance) (*Instance, error) {
	if other == nil {
		return ins, nil
	}
	for _, p := range other.predNames() {
		for _, a := range other.byPred[p] {
			if err := ins.Add(a); err != nil {
				return nil, err
			}
		}
	}
	return ins, nil
}

// Equal reports whether the two instances have exactly the same atoms.
func (ins *Instance) Equal(other *Instance) bool {
	if ins.Len() != other.Len() {
		return false
	}
	for k := range ins.atoms {
		if _, ok := other.atoms[k]; !ok {
			return false
		}
	}
	return true
}

// Dump renders the instance as parseable ground-atom statements, one
// per line ("R(a,b)."), in canonical order — the exact inverse of the
// ground-atom parser: Parse(Dump(I)) equals I for every dumpable
// instance. Constants containing syntax delimiters, quotes, spaces or
// newlines are emitted quoted with \' and \\ escapes; the empty
// constant dumps as ”. Only instances holding labelled nulls,
// invalid-UTF-8 constant names, or predicates that are not identifiers
// (which Parse could never read back) are rejected.
func (ins *Instance) Dump() (string, error) {
	var b strings.Builder
	for _, a := range ins.Atoms() {
		if !scan.IsIdent(a.Pred) {
			return "", fmt.Errorf("instance: predicate %q is not an identifier", a.Pred)
		}
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if t.IsNull() {
				return "", fmt.Errorf("instance: cannot dump null %s", t)
			}
			if !utf8.ValidString(t.Name) {
				return "", fmt.Errorf("instance: constant %q is not valid UTF-8", t.Name)
			}
			if bareSafe(t.Name) {
				b.WriteString(t.Name)
			} else {
				scan.WriteQuoted(&b, t.Name)
			}
		}
		b.WriteString(").\n")
	}
	return b.String(), nil
}

// bareSafe reports whether the constant name can be emitted unquoted:
// nonempty, no whitespace, and none of the delimiter runes the parser
// stops a bare token at.
func bareSafe(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if unicode.IsSpace(r) || isConstDelim(r) {
			return false
		}
	}
	return true
}

// String renders the instance as a sorted set of atoms.
func (ins *Instance) String() string {
	atoms := ins.Atoms()
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
