package cq

import (
	"bytes"
	"slices"
	"strconv"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Separator and escape bytes of CanonicalKey. A predicate or constant
// name writes each of these bytes b as keyEscape followed by '0'+b, so
// every separator in a key is structural.
const (
	keyFieldSep = 0x00 // between an atom's predicate and its argument labels
	keyAtomSep  = 0x01 // between atoms
	keyEscape   = 0x02 // starts the two-byte escape of 0x00, 0x01 or 0x02
)

// appendKeyName appends name to buf with its separator and escape bytes
// escaped. A name without them is appended unchanged.
func appendKeyName(buf []byte, name string) []byte {
	start := 0
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= keyEscape {
			buf = append(buf, name[start:i]...)
			buf = append(buf, keyEscape, '0'+c)
			start = i + 1
		}
	}
	return append(buf, name[start:]...)
}

// CanonicalKey returns a renaming-invariant fingerprint of the query:
// two queries with the same key are isomorphic (equal up to consistent
// variable renaming). The converse does not always hold — canonical
// graph labelling is not attempted — so the key may distinguish some
// isomorphic queries with highly symmetric shapes. Users (chiefly the
// rewriting engine's duplicate filter) treat the key as a sound dedup
// hash: collisions never merge non-isomorphic queries, at worst some
// isomorphic duplicates survive and are later removed by the semantic
// containment-based minimization.
//
// The key is computed by iterating "name variables by first occurrence,
// then sort atoms" to a fixed point, which resolves the common cases.
//
// Layout: "free=<n>|", then the atoms in canonical order separated by
// 0x01. An atom is its predicate and its argument labels separated by
// 0x00: "c:<name>" for a constant, "F<i>" for the free variable at head
// position i, "E<j>" for the j-th existential variable. Predicate and
// constant names escape 0x00, 0x01 and 0x02 as 0x02 followed by '0',
// '1' or '2', so a key decodes back to exactly one labelled atom list;
// names without those bytes appear verbatim.
//
// CanonicalKey computes what a fresh Keyer computes, with the term map
// on the stack: each refinement round renders every atom once into one
// reused buffer and stable-sorts an index permutation on those byte
// keys, so a key costs a handful of allocations however many rounds it
// takes.
func (q *CQ) CanonicalKey() string {
	_, _, key := canonicalKey(make(map[term.Term]int32), nil, nil, q.Free, q.Atoms)
	return string(key)
}

// Keyer computes CanonicalKey with scratch it keeps between calls: a
// search that keys many candidates reuses one Keyer and, once its
// buffers have grown, allocates nothing per key. The zero value is
// ready to use. A Keyer is not safe for concurrent use.
type Keyer struct {
	ids  map[term.Term]int32 // the non-constant terms, numbered by first occurrence
	ints []int32             // argument codes, atom offsets, permutation and labels
	buf  []byte              // atom renderings, then the key behind them
}

// Key returns CanonicalKey of the query with free variables free and
// body atoms, byte for byte. The bytes stay valid until the next call.
func (k *Keyer) Key(free []term.Term, atoms []instance.Atom) []byte {
	if k.ids == nil {
		k.ids = make(map[term.Term]int32)
	}
	var key []byte
	k.ints, k.buf, key = canonicalKey(k.ids, k.ints, k.buf, free, atoms)
	return key
}

// canonicalKey computes the key of (free, atoms) with ids, ints and buf
// as scratch; ids is cleared first. It returns the grown scratch slices
// and the key, which is buf's tail. It stores neither argument, so a
// caller's map may live on the caller's stack.
func canonicalKey(ids map[term.Term]int32, ints []int32, buf []byte, free []term.Term, atoms []instance.Atom) ([]int32, []byte, []byte) {
	n := len(atoms)

	// size estimates one round's rendering: four bytes per argument
	// label and its separator, plus the predicate and constant names.
	nargs, size := 0, 0
	for _, a := range atoms {
		nargs += len(a.Args)
		size += len(a.Pred) + 4*len(a.Args)
	}
	// Number the non-constant terms by first occurrence. codes[j] is the
	// number of the j-th argument (-1 for a constant) and argStart[i] is
	// where atom i's arguments start in codes. A query has at most
	// nargs numbered terms, which bounds the label slabs below.
	clear(ids)
	ints = slices.Grow(ints[:0], nargs+n+2*n+1+3*nargs)[:nargs+n]
	codes, argStart := ints[:nargs], ints[nargs:]
	c := 0
	for i, a := range atoms {
		argStart[i] = int32(c)
		for _, t := range a.Args {
			codes[c] = -1
			if t.IsConst() {
				size += len(t.Name)
			} else {
				id, ok := ids[t]
				if !ok {
					id = int32(len(ids))
					ids[t] = id
				}
				codes[c] = id
			}
			c++
		}
	}

	// perm is the current atom order and off[i] where atom i's rendering
	// starts in buf. Per term: fixed is the head position of a free term
	// (the last one when the head repeats it), assign and next are this
	// and the next round's existential labels; -1 means none.
	nt := len(ids)
	ints = ints[:nargs+3*n+1+3*nt]
	slab := ints[nargs+n:]
	perm, off := slab[:n], slab[n:2*n+1]
	fixed := slab[2*n+1 : 2*n+1+nt]
	assign := slab[2*n+1+nt : 2*n+1+2*nt]
	next := slab[2*n+1+2*nt:]
	for i := range perm {
		perm[i] = int32(i)
	}
	for v := range fixed {
		fixed[v], assign[v] = -1, -1
	}
	// Free variables get fixed labels up front: they are not renameable.
	for i, x := range free {
		if id, ok := ids[x]; ok {
			fixed[id] = int32(i)
		}
	}

	// The final rendering and the key it is copied into share buf.
	buf = slices.Grow(buf[:0], 2*size+len("free=|")+20+n)
	// sortAtoms renders every atom under the current labelling, then
	// stable-sorts perm by the renderings.
	sortAtoms := func() {
		buf = buf[:0]
		for i, a := range atoms {
			off[i] = int32(len(buf))
			buf = appendKeyName(buf, a.Pred)
			for j, t := range a.Args {
				buf = append(buf, keyFieldSep)
				switch v := codes[int(argStart[i])+j]; {
				case v < 0:
					buf = appendKeyName(append(buf, 'c', ':'), t.Name)
				case fixed[v] >= 0:
					buf = strconv.AppendInt(append(buf, 'F'), int64(fixed[v]), 10)
				case assign[v] >= 0:
					buf = strconv.AppendInt(append(buf, 'E'), int64(assign[v]), 10)
				default:
					buf = append(buf, '?') // unassigned existential variable
				}
			}
		}
		off[n] = int32(len(buf))
		slices.SortStableFunc(perm, func(i, j int32) int {
			return bytes.Compare(buf[off[i]:off[i+1]], buf[off[j]:off[j+1]])
		})
	}

	for round := 0; round < n+2; round++ {
		// Sort atoms under the current partial labelling.
		sortAtoms()
		// Relabel existential variables by first occurrence in the new order.
		for v := range next {
			next[v] = -1
		}
		e := int32(0)
		for _, i := range perm {
			for j, t := range atoms[i].Args {
				v := codes[int(argStart[i])+j]
				if !t.IsVar() || fixed[v] >= 0 || next[v] >= 0 {
					continue
				}
				next[v] = e
				e++
			}
		}
		same := slices.Equal(next, assign)
		assign, next = next, assign
		if same {
			break
		}
	}

	sortAtoms()
	mark := len(buf)
	buf = strconv.AppendInt(append(buf, "free="...), int64(len(free)), 10)
	buf = append(buf, '|')
	for p, i := range perm {
		if p > 0 {
			buf = append(buf, keyAtomSep)
		}
		buf = append(buf, buf[off[i]:off[i+1]]...)
	}
	return ints, buf, buf[mark:]
}

// DedupAtoms returns an independent copy of q without exact duplicate
// atoms, keeping first occurrences in order. Queries are small, so
// duplicates are found by comparing each atom with the kept ones.
func (q *CQ) DedupAtoms() *CQ {
	atoms := instance.CloneAtoms(q.Atoms)
	kept := atoms[:0]
	for _, a := range atoms {
		if !slices.ContainsFunc(kept, a.Equal) {
			kept = append(kept, a)
		}
	}
	return &CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: slices.Clip(kept)}
}
