package cq

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

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
// Each refinement round renders every atom once into one reused buffer
// and stable-sorts an index permutation on those byte keys, so a key
// costs a handful of allocations however many rounds it takes.
func (q *CQ) CanonicalKey() string {
	atoms := q.Atoms
	n := len(atoms)

	// size estimates one round's rendering: four bytes per argument
	// label and its separator, plus the predicate and constant names.
	nargs, size := 0, 0
	for _, a := range atoms {
		nargs += len(a.Args)
		size += len(a.Pred) + 4*len(a.Args)
	}
	// Number the non-constant terms by first occurrence. codes[k] is the
	// number of the k-th argument (-1 for a constant) and argStart[i] is
	// where atom i's arguments start in codes.
	codes := make([]int32, nargs+n)
	argStart := codes[nargs:]
	ids := make(map[term.Term]int32)
	k := 0
	for i, a := range atoms {
		argStart[i] = int32(k)
		for _, t := range a.Args {
			codes[k] = -1
			if t.IsConst() {
				size += len(t.Name)
			} else {
				id, ok := ids[t]
				if !ok {
					id = int32(len(ids))
					ids[t] = id
				}
				codes[k] = id
			}
			k++
		}
	}

	// perm is the current atom order and off[i] where atom i's rendering
	// starts in buf. Per term: fixed is the head position of a free term
	// (the last one when the head repeats it), assign and next are this
	// and the next round's existential labels; -1 means none.
	nt := len(ids)
	slab := make([]int32, 2*n+1+3*nt)
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
	for i, x := range q.Free {
		if id, ok := ids[x]; ok {
			fixed[id] = int32(i)
		}
	}

	buf := make([]byte, 0, size)
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
	free := strconv.Itoa(len(q.Free))
	var b strings.Builder
	b.Grow(len("free=|") + len(free) + len(buf) + max(n-1, 0))
	b.WriteString("free=")
	b.WriteString(free)
	b.WriteByte('|')
	for p, i := range perm {
		if p > 0 {
			b.WriteByte(keyAtomSep)
		}
		b.Write(buf[off[i]:off[i+1]])
	}
	return b.String()
}

// DedupAtoms returns an independent copy of q without exact duplicate
// atoms, keeping first occurrences in order. Queries are small, so
// duplicates are found by comparing each atom with the earlier ones,
// and the kept atoms' arguments are copied into one shared slab.
func (q *CQ) DedupAtoms() *CQ {
	kept, nargs := 0, 0
	for i, a := range q.Atoms {
		if !slices.ContainsFunc(q.Atoms[:i], a.Equal) {
			kept++
			nargs += len(a.Args)
		}
	}
	out := &CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: make([]instance.Atom, 0, kept)}
	slab := make([]term.Term, 0, nargs)
	for i, a := range q.Atoms {
		if slices.ContainsFunc(q.Atoms[:i], a.Equal) {
			continue
		}
		start := len(slab)
		slab = append(slab, a.Args...)
		out.Atoms = append(out.Atoms, instance.Atom{Pred: a.Pred, Args: slab[start:len(slab):len(slab)]})
	}
	return out
}
