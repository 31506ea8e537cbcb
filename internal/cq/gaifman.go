package cq

import (
	"slices"
	"sort"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Gaifman is the Gaifman graph of a CQ: nodes are the query's
// variables, with an edge between two variables iff they co-occur in
// some atom (Section 3.2 of the paper).
type Gaifman struct {
	adj map[term.Term]map[term.Term]bool
}

// GaifmanGraph computes the Gaifman graph of q.
func GaifmanGraph(q *CQ) *Gaifman {
	g := &Gaifman{adj: make(map[term.Term]map[term.Term]bool)}
	for _, v := range q.Vars() {
		g.adj[v] = make(map[term.Term]bool)
	}
	for _, a := range q.Atoms {
		vs := a.Vars()
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				g.adj[vs[i]][vs[j]] = true
				g.adj[vs[j]][vs[i]] = true
			}
		}
	}
	return g
}

// Adjacent reports whether x and y share an atom.
func (g *Gaifman) Adjacent(x, y term.Term) bool { return g.adj[x][y] }

// Nodes returns the variables of the graph in canonical order.
func (g *Gaifman) Nodes() []term.Term {
	out := make([]term.Term, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Components returns the connected components of the graph as sets.
func (g *Gaifman) Components() []map[term.Term]bool {
	seen := make(map[term.Term]bool)
	var comps []map[term.Term]bool
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		comp := make(map[term.Term]bool)
		stack := []term.Term{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			comp[v] = true
			for u := range g.adj[v] {
				if !seen[u] {
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether q's Gaifman graph is connected — the
// notion of "connected CQ" used by Proposition 5. Queries with no
// variables at all count as connected.
func (q *CQ) IsConnected() bool {
	g := GaifmanGraph(q)
	return len(g.Components()) <= 1 && atomsConnectedByVars(q)
}

// atomsConnectedByVars additionally requires that variable-free atoms
// do not float disconnected from the rest: the Gaifman graph alone
// cannot see them. A query with ≥2 atoms where some atom shares no
// variable with the others is disconnected for our purposes.
func atomsConnectedByVars(q *CQ) bool {
	if len(q.Atoms) <= 1 {
		return true
	}
	// Union-find over atom indices through shared variables.
	parent := make([]int, len(q.Atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(i, j int) { parent[find(i)] = find(j) }
	byVar := make(map[term.Term]int)
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if j, ok := byVar[v]; ok {
				union(i, j)
			} else {
				byVar[v] = i
			}
		}
	}
	root := find(0)
	for i := 1; i < len(q.Atoms); i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

// ConnectedComponents splits q into its maximally connected subqueries
// (used by Lemma 26 / Proposition 5). Free variables are distributed to
// the component containing them. Variable-free atoms each form their
// own component.
func (q *CQ) ConnectedComponents() []*CQ {
	if len(q.Atoms) == 0 {
		return nil
	}
	parent := make([]int, len(q.Atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	byVar := make(map[term.Term]int)
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := make(map[int][]instance.Atom)
	var order []int
	for i, a := range q.Atoms {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	var out []*CQ
	for _, r := range order {
		atoms := groups[r]
		varSet := make(map[term.Term]bool)
		for _, a := range atoms {
			for _, v := range a.Vars() {
				varSet[v] = true
			}
		}
		var free []term.Term
		for _, x := range q.Free {
			if varSet[x] {
				free = append(free, x)
			}
		}
		out = append(out, &CQ{Name: q.Name, Free: free, Atoms: instance.CloneAtoms(atoms)})
	}
	return out
}

// Conjoin returns the conjunction q ∧ q' with free variables
// concatenated (duplicates dropped). Callers wanting the Boolean
// conjunction of Proposition 5 should pass Boolean queries.
func Conjoin(q, p *CQ) *CQ {
	seen := make(map[term.Term]bool)
	var free []term.Term
	for _, x := range append(append([]term.Term(nil), q.Free...), p.Free...) {
		if !seen[x] {
			seen[x] = true
			free = append(free, x)
		}
	}
	return &CQ{
		Name:  q.Name,
		Free:  free,
		Atoms: instance.CloneAtoms(slices.Concat(q.Atoms, p.Atoms)),
	}
}
