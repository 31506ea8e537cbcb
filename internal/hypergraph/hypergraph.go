// Package hypergraph implements the hypergraph view of instances and
// queries: the GYO ear-removal algorithm deciding acyclicity, explicit
// join trees (forests) with verification, and the compact acyclic
// subinstance construction of Lemma 9 / Lemma 27 of the paper.
//
// An instance is acyclic iff it admits a join tree: a tree whose nodes
// are the atoms such that, for every null (here: every non-constant
// term), the nodes containing it form a connected subtree. A CQ is
// acyclic iff the instance of its atoms (variables read as nulls) is.
package hypergraph

import (
	"fmt"
	"slices"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Forest is a join forest over a set of distinct atoms: node i carries
// Atoms[i] and has parent Parent[i], or -1 for roots. A Forest produced
// by GYO satisfies the join-tree connectivity condition, which Verify
// re-checks from first principles.
type Forest struct {
	Atoms  []instance.Atom
	Parent []int
}

// flexible reports whether t participates in the connectivity
// condition: nulls and variables do, constants do not (the paper's
// definition requires connectedness for nulls only; variables in
// queries are read as nulls).
func flexible(t term.Term) bool { return !t.IsConst() }

func flexTerms(a instance.Atom) []term.Term {
	out := a.Terms()
	ts := out[:0]
	for _, t := range out {
		if flexible(t) {
			ts = append(ts, t)
		}
	}
	return ts
}

// GYO runs the Graham/Yu–Özsoyoğlu ear-removal algorithm over the
// given atoms (duplicates are merged). It returns a join forest and
// true when the hypergraph is acyclic, or nil and false otherwise.
func GYO(atoms []instance.Atom) (*Forest, bool) {
	// Deduplicate while preserving first-occurrence order.
	nodes := make([]instance.Atom, 0, len(atoms))
	for i, a := range atoms {
		if !slices.ContainsFunc(atoms[:i], a.Equal) {
			nodes = append(nodes, a)
		}
	}
	if len(nodes) == 0 {
		return &Forest{}, true
	}
	parent := make([]int, len(nodes))
	if !removeEars(nodes, parent) {
		return nil, false
	}
	return &Forest{Atoms: nodes, Parent: parent}, true
}

// IsAcyclic reports whether the atoms form an acyclic hypergraph. It
// runs GYO's ear removal without building a forest. Duplicate atoms
// stay in: a duplicate is always an ear of its twin, and ear removal
// reaches the same verdict whatever order it removes ears in.
func IsAcyclic(atoms []instance.Atom) bool {
	return removeEars(atoms, nil)
}

// earSlabSize is the largest table removeEars keeps on the stack, in
// int32 entries: enough for the small queries the decision procedure
// tests by the thousand.
const earSlabSize = 256

// removeEars is the ear-removal kernel of GYO and IsAcyclic. The edges
// are the atoms' sets of flexible terms. An alive edge is an ear when
// the terms it shares with other alive edges all lie in one other alive
// edge — its parent, the least such index, found among the edges
// holding the first shared term — or when it shares none, which makes
// it a root. Ears go lowest index first until one edge is left
// (acyclic) or none is an ear (cyclic). When parent is non-nil it
// receives each edge's parent, -1 for roots.
//
// A term's dense id is the position of its first occurrence in the
// flattened argument list, found by scanning the earlier arguments, so
// the kernel builds no map, no atom key and no per-atom slice: one
// int32 slab, on the stack for small inputs, holds every table.
func removeEars(atoms []instance.Atom, parent []int) bool {
	n, total := len(atoms), 0
	for _, a := range atoms {
		total += len(a.Args)
	}
	// Layout: off[n+1] | ids[total] | occ[total] | alive[n] |
	// inOff[total+1] | in[total]. Edge i's distinct flexible term ids
	// are ids[off[i]:off[i+1]]; occ counts, per id, the alive edges
	// holding it; in[inOff[t]:inOff[t+1]] lists the edges holding t in
	// ascending order.
	var buf [earSlabSize]int32
	size := 2*n + 4*total + 2
	var slab []int32
	if size <= len(buf) {
		slab = buf[:size]
	} else {
		slab = make([]int32, size)
	}
	off, rest := slab[:n+1], slab[n+1:]
	ids, rest := rest[:total], rest[total:]
	occ, rest := rest[:total], rest[total:]
	alive, rest := rest[:n], rest[n:]
	inOff, in := rest[:total+1], rest[total+1:]
	clear(occ)
	m, base := 0, 0
	for i, a := range atoms {
		off[i] = int32(m)
		for p, t := range a.Args {
			if !flexible(t) {
				continue
			}
			id, flat := int32(base+p), 0
			for j, b := range atoms[:i+1] {
				if k := slices.Index(b.Args, t); k >= 0 && (j < i || k < p) {
					id = int32(flat + k)
					break
				}
				flat += len(b.Args)
			}
			if !slices.Contains(ids[off[i]:m], id) {
				ids[m] = id
				m++
				occ[id]++
			}
		}
		base += len(a.Args)
		alive[i] = 1
	}
	off[n] = int32(m)
	inOff[0] = 0
	for t, c := range occ {
		inOff[t+1] = inOff[t] + c
	}
	// Fill the occurrence lists edge by edge, counting occ back up as
	// the cursor.
	clear(occ)
	for i := 0; i < n; i++ {
		for _, t := range ids[off[i]:off[i+1]] {
			in[inOff[t]+occ[t]] = int32(i)
			occ[t]++
		}
	}
	for i := range parent {
		parent[i] = -1
	}

	for remaining := n; remaining > 1; remaining-- {
		ear, earParent := -1, -1
		for i := 0; i < n && ear < 0; i++ {
			if alive[i] == 0 {
				continue
			}
			edge := ids[off[i]:off[i+1]]
			w0 := firstShared(edge, occ)
			if w0 < 0 {
				// Isolated edge: becomes a root of its own component.
				ear = i
				continue
			}
			for _, j := range in[inOff[w0]:inOff[w0+1]] {
				if int(j) != i && alive[j] != 0 && holdsShared(ids[off[j]:off[j+1]], edge, occ) {
					ear, earParent = i, int(j)
					break
				}
			}
		}
		if ear < 0 {
			return false // no ear: cyclic
		}
		alive[ear] = 0
		if parent != nil {
			parent[ear] = earParent
		}
		for _, t := range ids[off[ear]:off[ear+1]] {
			occ[t]--
		}
	}
	return true
}

// firstShared returns the edge's first term that another alive edge
// holds too, or -1 when it shares none.
func firstShared(edge, occ []int32) int32 {
	for _, t := range edge {
		if occ[t] > 1 {
			return t
		}
	}
	return -1
}

// holdsShared reports whether other holds every term of edge that some
// other alive edge holds too.
func holdsShared(other, edge, occ []int32) bool {
	for _, t := range edge {
		if occ[t] > 1 && !slices.Contains(other, t) {
			return false
		}
	}
	return true
}

// Len returns the number of nodes.
func (f *Forest) Len() int { return len(f.Atoms) }

// Roots returns the indices of root nodes.
func (f *Forest) Roots() []int {
	var out []int
	for i, p := range f.Parent {
		if p == -1 {
			out = append(out, i)
		}
	}
	return out
}

// Children returns the children adjacency lists.
func (f *Forest) Children() [][]int {
	ch := make([][]int, f.Len())
	for i, p := range f.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Verify checks the join-forest invariant from first principles: the
// parent relation is a forest, and for every flexible term the nodes
// containing it induce a connected subgraph. It returns nil iff the
// invariant holds.
func (f *Forest) Verify() error {
	n := f.Len()
	if len(f.Parent) != n {
		return fmt.Errorf("hypergraph: parent/atom length mismatch")
	}
	// Forest shape: no cycles through parent pointers.
	for i := 0; i < n; i++ {
		seenSteps := 0
		for j := i; j != -1; j = f.Parent[j] {
			if j < -1 || j >= n {
				return fmt.Errorf("hypergraph: parent index %d out of range", j)
			}
			seenSteps++
			if seenSteps > n {
				return fmt.Errorf("hypergraph: cycle through node %d", i)
			}
		}
	}
	// Connectivity per flexible term: count, for each term, the number
	// of "component tops": nodes containing t whose parent does not
	// contain t. Connected iff exactly one top per tree-component of t's
	// occurrence set — and since t must be connected overall, exactly
	// one top in total.
	contains := func(i int, t term.Term) bool {
		for _, u := range f.Atoms[i].Args {
			if u == t {
				return true
			}
		}
		return false
	}
	occ := make(map[term.Term][]int)
	for i, a := range f.Atoms {
		for _, t := range flexTerms(a) {
			occ[t] = append(occ[t], i)
		}
	}
	for t, nodesWith := range occ {
		tops := 0
		for _, i := range nodesWith {
			p := f.Parent[i]
			if p == -1 || !contains(p, t) {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("hypergraph: term %s occurs in %d disconnected parts", t, tops)
		}
	}
	return nil
}
