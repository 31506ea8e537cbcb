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
//
// A stored atom of arity at most two is one allocation (see store): a
// list that holds a single atom is that atom's own one-atom view, and
// only a list that grows past one atom gets a slice of its own. Removal
// swaps the last atom of each list into the vacated position, which
// where records, so it costs O(arity) list work.
type Instance struct {
	atoms  atomSet           `sem:"guardedby(owner)"`
	byPred map[string][]Atom `sem:"guardedby(owner)"` // predicate → atoms (order of insertion, swap-with-last on removal)
	byPos  map[posKey][]Atom `sem:"guardedby(owner)"`
	// where holds, per slot, the atom's index in its ByPred list and
	// then in each of its ByPos lists: stride entries per slot, stride
	// one more than the widest arity stored so far.
	where  []int32        `sem:"guardedby(owner)"`
	stride int            `sem:"guardedby(owner)"`
	sch    *schema.Schema `sem:"guardedby(owner)"` // lazily grown signature of the instance

	// interned caches the columnar integer-coded view (see interned.go);
	// dropped on every bare mutation, rebuilt lazily by Interned.
	// ApplyDelta instead repairs a cached view in place of dropping it.
	interned atomic.Pointer[InternedView]

	// epoch counts mutations: every Add/Remove that changes the atom
	// set bumps it by one, every ApplyDelta batch by one.
	epoch uint64 `sem:"guardedby(owner)"`
}

// New returns an empty instance.
func New() *Instance { return NewSized(0, 0) }

// NewSized returns an empty instance with room for n atoms of arity at
// most arity, so that loading them grows no table.
func NewSized(n, arity int) *Instance {
	return &Instance{
		atoms:  newAtomSet(n),
		byPred: make(map[string][]Atom),
		byPos:  make(map[posKey][]Atom),
		where:  make([]int32, 0, n*(arity+1)),
		stride: arity + 1,
		sch:    schema.New(),
	}
}

// FromAtoms builds an instance containing the given atoms. Variables in
// any atom are rejected: instances range over C ∪ N only.
func FromAtoms(atoms ...Atom) (*Instance, error) {
	arity := 0
	for _, a := range atoms {
		arity = max(arity, len(a.Args))
	}
	ins := NewSized(len(atoms), arity)
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
	_, _, err := ins.AddSlot(a)
	return err
}

// AddReport is Add returning also whether the atom was new.
func (ins *Instance) AddReport(a Atom) (added bool, err error) {
	_, added, err = ins.AddSlot(a)
	return added, err
}

// AddSlot is Add returning also the atom's slot and whether the atom
// was new. The instance stores a copy of a, so callers may reuse a's
// argument buffer. A slot is a handle for side tables keyed by atom
// (the chase's derivation depths): it stays the atom's until the atom
// is removed, after which a later atom may take it. Slots are a
// function of the operation history but never reach answers or
// fingerprints.
func (ins *Instance) AddSlot(a Atom) (slot int32, added bool, err error) {
	if a.HasVars() {
		return -1, false, fmt.Errorf("instance: atom %s contains a variable", a)
	}
	if err := ins.sch.Add(a.Pred, len(a.Args)); err != nil {
		return -1, false, err
	}
	h := hashAtom(a.Pred, a.Args)
	if s := ins.atoms.find(h, a.Pred, a.Args); s >= 0 {
		return s, false, nil
	}
	s := ins.addIndexed(h, a)
	ins.noteBareMutation()
	return s, true, nil
}

// SlotOf returns the slot of the atom pred(args), or -1 when the
// instance does not hold it.
func (ins *Instance) SlotOf(pred string, args []term.Term) int32 {
	return ins.atoms.find(hashAtom(pred, args), pred, args)
}

// addIndexed stores a copy of the already-validated, absent atom a,
// whose hash is h, in the atom set and both indexes, and returns its
// slot. It does not touch the epoch or the interned view —
// callers decide between bare-mutation and delta bookkeeping.
func (ins *Instance) addIndexed(h uint64, a Atom) int32 {
	a, view := store(a)
	s := ins.atoms.insert(h, a)
	w := ins.whereOf(s, len(a.Args))
	w[0] = int32(len(ins.byPred[a.Pred]))
	ins.byPred[a.Pred] = appendList(ins.byPred[a.Pred], view)
	for i, t := range a.Args {
		pk := posKey{a.Pred, i, t}
		w[1+i] = int32(len(ins.byPos[pk]))
		ins.byPos[pk] = appendList(ins.byPos[pk], view)
	}
	return s
}

// appendList appends the atom of the one-atom view to list. An empty
// list becomes the view itself; it is never appended into, so no list
// writes into another atom's cell.
func appendList(list, view []Atom) []Atom {
	if len(list) == 0 {
		return view
	}
	return append(list, view[0])
}

// whereOf returns slot s's entries in where, first widening the stride
// for an atom wider than any before and growing the table for a new
// slot.
func (ins *Instance) whereOf(s int32, arity int) []int32 {
	if arity >= ins.stride {
		old, oldStride := ins.where, ins.stride
		ins.stride = arity + 1
		ins.where = make([]int32, len(ins.atoms.slots)*ins.stride)
		for i := 0; oldStride > 0 && i < len(old)/oldStride; i++ {
			copy(ins.where[i*ins.stride:], old[i*oldStride:(i+1)*oldStride])
		}
	}
	if n := len(ins.atoms.slots) * ins.stride; len(ins.where) < n {
		ins.where = append(ins.where, make([]int32, n-len(ins.where))...)
	}
	return ins.where[int(s)*ins.stride : int(s+1)*ins.stride]
}

// Remove deletes the atom if present, reporting whether it was there.
func (ins *Instance) Remove(a Atom) bool {
	h := hashAtom(a.Pred, a.Args)
	s := ins.atoms.find(h, a.Pred, a.Args)
	if s < 0 {
		return false
	}
	ins.removeIndexed(h, s)
	ins.noteBareMutation()
	return true
}

// removeIndexed is the index-maintenance half of Remove for the atom in
// slot s, whose hash is h; the same epoch/view caveat as
// addIndexed applies.
func (ins *Instance) removeIndexed(h uint64, s int32) {
	a := ins.atoms.slots[s]
	w := ins.where[int(s)*ins.stride:]
	if list := ins.unlink(ins.byPred[a.Pred], w[0], 0); len(list) > 0 {
		ins.byPred[a.Pred] = list
	} else {
		delete(ins.byPred, a.Pred)
	}
	for i, t := range a.Args {
		pk := posKey{a.Pred, i, t}
		if list := ins.unlink(ins.byPos[pk], w[1+i], 1+i); len(list) > 0 {
			ins.byPos[pk] = list
		} else {
			delete(ins.byPos, pk)
		}
	}
	ins.atoms.remove(h, s)
}

// unlink removes list[i] by moving the list's last atom into its place,
// recording the moved atom's new index as its k-th where entry. A list
// of two or more atoms is the instance's own slice, so clearing the
// vacated element is safe; a one-atom list may be a shared view, and
// removing its atom writes nothing.
func (ins *Instance) unlink(list []Atom, i int32, k int) []Atom {
	last := int32(len(list) - 1)
	if i != last {
		m := list[last]
		list[i] = m
		ins.where[int(ins.SlotOf(m.Pred, m.Args))*ins.stride+k] = i
	}
	if last > 0 {
		list[last] = Atom{}
	}
	return list[:last]
}

// noteBareMutation records a single-atom Add/Remove: the epoch moves
// and the cached interned view is dropped for a lazy full rebuild,
// whose relations start families of their own.
func (ins *Instance) noteBareMutation() {
	ins.epoch++
	ins.invalidateInterned()
}

// Reset empties the instance for reuse. It keeps the capacity of its
// slot set, its where table and its index maps, and its schema emptied,
// so a search that freezes and chases many candidates into one instance
// stops growing those tables once they fit. Slots restart at 0 and the
// lists are rebuilt in Add order: a reset instance filled by some Adds
// matches NewSized filled by the same Adds in Atoms, ByPred and ByPos
// order, slots and schema. Like any bare mutation, Reset moves the
// epoch and drops the interned view. It recycles no cell, so every
// atom, list and clone handed out before it stays intact.
func (ins *Instance) Reset() {
	ins.atoms.reset()
	clear(ins.byPred)
	clear(ins.byPos)
	ins.where = ins.where[:0]
	ins.sch.Reset()
	ins.noteBareMutation()
}

// Has reports membership.
func (ins *Instance) Has(a Atom) bool { return ins.SlotOf(a.Pred, a.Args) >= 0 }

// Len returns the number of atoms.
func (ins *Instance) Len() int { return ins.atoms.live }

// Schema returns the signature grown from the atoms added so far. The
// returned schema is live; callers must not mutate it.
func (ins *Instance) Schema() *schema.Schema { return ins.sch }

// Atoms returns all atoms in canonical order.
func (ins *Instance) Atoms() []Atom {
	out := ins.AtomsUnordered()
	SortAtoms(out)
	return out
}

// AtomsUnordered returns all atoms in slot order, avoiding the sort
// cost of Atoms for hot paths.
func (ins *Instance) AtomsUnordered() []Atom {
	return ins.AppendAtomsUnordered(make([]Atom, 0, ins.atoms.live))
}

// AppendAtomsUnordered appends all atoms in slot order to dst, so a
// caller that lists the atoms repeatedly can reuse one buffer.
func (ins *Instance) AppendAtomsUnordered(dst []Atom) []Atom {
	for i, a := range ins.atoms.slots {
		if ins.atoms.isLive(i) {
			dst = append(dst, a)
		}
	}
	return dst
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
	for i, a := range ins.atoms.slots {
		if ins.atoms.isLive(i) {
			for _, t := range a.Args {
				seen[t] = true
			}
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

// Clone returns an independent copy. The atom set and every ByPred and
// ByPos list are copied in their current order, so the clone hands out
// candidates exactly as ins does and index order stays a function of
// the operation history. The stored atoms are shared, and so are the
// one-atom lists, which neither instance ever writes (see unlink). Like
// an instance filled by Add, the clone is at epoch Len() with no
// interned view.
func (ins *Instance) Clone() *Instance {
	out := &Instance{
		atoms:  ins.atoms.clone(),
		byPred: make(map[string][]Atom, len(ins.byPred)),
		byPos:  make(map[posKey][]Atom, len(ins.byPos)),
		where:  slices.Clone(ins.where),
		stride: ins.stride,
		sch:    schema.New(),
		epoch:  uint64(ins.atoms.live),
	}
	for _, p := range ins.predNames() {
		list := ins.byPred[p]
		out.byPred[p] = cloneList(list)
		if err := out.sch.Add(p, len(list[0].Args)); err != nil {
			panic(err) // cannot happen: one arity per predicate
		}
	}
	for pk, list := range ins.byPos {
		out.byPos[pk] = cloneList(list)
	}
	return out
}

// cloneList copies an index list for Clone. A list of capacity one is
// shared: appending to it reallocates, and removing its atom writes
// nothing.
func cloneList(list []Atom) []Atom {
	if cap(list) == 1 {
		return list
	}
	return slices.Clone(list)
}

// predNames returns the predicates holding atoms, in sorted order; a
// list that empties leaves the index.
func (ins *Instance) predNames() []string {
	names := make([]string, 0, len(ins.byPred))
	for p := range ins.byPred {
		names = append(names, p)
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
	for i, a := range ins.atoms.slots {
		if ins.atoms.isLive(i) && !other.Has(a) {
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
