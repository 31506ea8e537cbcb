package instance

import (
	"hash/maphash"
	"maps"
	"slices"

	"semacyclic/internal/term"
)

// hashSeed keys every atom hash. It is random per process, so no input
// can be built to collide on purpose.
var hashSeed = maphash.MakeSeed()

// hashAtom hashes the atom pred(args): the predicate, then per argument
// its kind and name, every name preceded by its length so that the
// hashed byte stream is injective. maphash.Hash writes never fail.
func hashAtom(pred string, args []term.Term) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	writeName(&h, pred)
	for _, t := range args {
		h.WriteByte(byte(t.K))
		writeName(&h, t.Name)
	}
	return h.Sum64()
}

// writeName writes s to h after its length as a base-128 varint.
func writeName(h *maphash.Hash, s string) {
	n := uint(len(s))
	for ; n >= 0x80; n >>= 7 {
		h.WriteByte(byte(n) | 0x80)
	}
	h.WriteByte(byte(n))
	h.WriteString(s)
}

// atomSet is a set of atoms addressed by slot, keyed by hashAtom and
// built without key strings. heads maps a hash to the first slot of
// its chain and next links the chain, so a collision costs one
// comparison and never a wrong answer. A removed atom's slot goes on
// the free list and is reused last-freed first: slot numbers are a
// function of the operation history. Nothing ranges over heads.
type atomSet struct {
	slots []Atom
	next  []int32 // chain link per slot: endOfChain, or freeSlot when free
	heads map[uint64]int32
	free  []int32
	live  int
}

const (
	endOfChain = -1
	freeSlot   = -2
)

func newAtomSet(n int) atomSet {
	return atomSet{
		slots: make([]Atom, 0, n),
		next:  make([]int32, 0, n),
		heads: make(map[uint64]int32, n),
	}
}

// find returns the slot of pred(args), whose hash is h, or -1.
func (s *atomSet) find(h uint64, pred string, args []term.Term) int32 {
	i, ok := s.heads[h]
	if !ok {
		return -1
	}
	for ; i != endOfChain; i = s.next[i] {
		if a := s.slots[i]; a.Pred == pred && slices.Equal(a.Args, args) {
			return i
		}
	}
	return -1
}

// insert stores a, which must be absent and hash to h, and returns its
// slot. The set keeps a itself, not a copy.
func (s *atomSet) insert(h uint64, a Atom) int32 {
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
		s.slots[i] = a
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, a)
		s.next = append(s.next, 0)
	}
	head, ok := s.heads[h]
	if !ok {
		head = endOfChain
	}
	s.next[i], s.heads[h] = head, i
	s.live++
	return i
}

// remove frees slot i, whose atom hashes to h.
func (s *atomSet) remove(h uint64, i int32) {
	if head := s.heads[h]; head == i {
		if s.next[i] == endOfChain {
			delete(s.heads, h)
		} else {
			s.heads[h] = s.next[i]
		}
	} else {
		p := head
		for s.next[p] != i {
			p = s.next[p]
		}
		s.next[p] = s.next[i]
	}
	s.slots[i], s.next[i] = Atom{}, freeSlot
	s.free = append(s.free, i)
	s.live--
}

// reset empties the set, keeping its capacity. The slots are cleared
// first, so the set holds on to no atom it no longer stores.
func (s *atomSet) reset() {
	clear(s.slots)
	s.slots, s.next, s.free, s.live = s.slots[:0], s.next[:0], s.free[:0], 0
	clear(s.heads)
}

// isLive reports whether slot i holds an atom.
func (s *atomSet) isLive(i int) bool { return s.next[i] != freeSlot }

// clone copies the set; the atoms themselves are shared.
func (s *atomSet) clone() atomSet {
	return atomSet{
		slots: slices.Clone(s.slots),
		next:  slices.Clone(s.next),
		heads: maps.Clone(s.heads),
		free:  slices.Clone(s.free),
		live:  s.live,
	}
}

// cell is a stored atom's storage: the atom, its arguments when there
// are at most two, and the one-atom list that serves as the atom's
// ByPred and ByPos list while that list holds this atom alone. Nothing
// writes a cell after store: a list that grows past one atom is
// appended into a new slice, and removing a list's only atom moves
// nothing.
type cell struct {
	one  [1]Atom
	args [2]term.Term
}

// store copies a into new storage and returns the stored atom and its
// one-atom list. Atoms of arity at most two take one allocation; wider
// ones take a second for their arguments.
func store(a Atom) (Atom, []Atom) {
	var one *[1]Atom
	var args []term.Term
	if len(a.Args) <= len(cell{}.args) {
		c := new(cell)
		if n := copy(c.args[:], a.Args); n > 0 {
			args = c.args[:n:n]
		}
		one = &c.one
	} else {
		one = new([1]Atom)
		args = slices.Clip(slices.Clone(a.Args))
	}
	one[0] = Atom{Pred: a.Pred, Args: args}
	return one[0], one[:]
}
