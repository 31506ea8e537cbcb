package core

import (
	"errors"
	"slices"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// The shape layer decides from the shape the proofs of Propositions 8
// and 15 give every witness (DESIGN.md §3). Via Lemma 9, an acyclic
// witness of q is g(q) plus at most |q| atoms, for a homomorphism g of
// q into the chase of the witness (acyclicity-preserving-chase
// classes), or g(p) plus at most |p| atoms, for a homomorphism g of a
// disjunct p of q's UCQ rewriting into the witness (UCQ-rewritable
// classes). When no predicate has arity above 2, an acyclic instance is
// a forest, and so is every subset of its atoms: g(q), resp. g(p), is
// then an acyclic Σ-equivalent of q on its own. So q is semantically
// acyclic iff some quotient of q, resp. of a disjunct of its rewriting,
// is acyclic and Σ-equivalent to q, and a source has finitely many
// quotients. core(q) may stand for q: it is equivalent to q, so the
// argument holds for it as well.
//
// A quotient identifies variables of its source; distinct free
// variables stay apart, since the chase of q keeps them apart (a pure
// tgd chase never merges terms, and shapeClass checks the egd chase).
// Merging is monotone: a quotient w' of w has w' ⊆ w, so q ⊄Σ w refutes
// every quotient of w. The layer therefore probes q ⊆Σ p for each
// source p and each merge of one variable pair of p before it
// enumerates the quotients, and skips every quotient that contains a
// refuted merge.

// shapeClass returns the class whose witness shape the shape layer
// reads for (q, Σ), or classNone when the layer does not apply: some
// predicate of q or Σ has arity above 2, either mentions a constant (a
// quotient would have to map variables to it), the class has no
// witness bound, or the chase of q equates two free variables or a
// free variable with a constant.
func shapeClass(v *verifier) (witnessClass, error) {
	if maxAritySigma(v.q, v.set) > 2 || len(availableConstants(v.q, v.set)) > 0 {
		return classNone, nil
	}
	class := classify(v.q, v.set)
	if class == classNone || len(v.set.EGDs) == 0 {
		return class, nil
	}
	_, frozen, err := v.chaseQuery()
	if err != nil {
		if errors.Is(err, stop.ErrCancelled) {
			return classNone, err
		}
		return classNone, nil
	}
	for i, f := range frozen {
		if !cq.IsFrozenConst(f) {
			return classNone, nil
		}
		for j := range i {
			if f == frozen[j] && v.q.Free[i] != v.q.Free[j] {
				return classNone, nil // the egds equated two free variables
			}
		}
	}
	return class, nil
}

// searchShape runs the shape layer over the quotients of c, layer 1's
// core(q), or of the disjuncts of q's rewriting. It returns the first
// verified witness in enumeration order, the number of containment
// checks made, and whether the miss is definitive: every candidate
// check was, the rewriting is complete, and neither the budget nor the
// step cap cut the enumeration short.
func searchShape(c *cq.CQ, class witnessClass, v *verifier, opt Options) (*cq.CQ, int, bool, error) {
	sources, complete := []*cq.CQ{c}, true
	if class == classRewritable {
		rw, err := v.rewriting()
		if err != nil {
			return nil, 0, false, err
		}
		sources, complete = rw.UCQ.Disjuncts, rw.Complete
	}
	s := shapeSearch{
		v:        v,
		opt:      opt,
		maxSteps: 50 * opt.SearchBudget,
		probes:   make(map[string]containment.Decision),
		tried:    make(map[string]bool),
	}
	for _, p := range sources {
		w, err := s.source(p)
		if err != nil || w != nil {
			return w, s.examined, false, err
		}
		if s.truncated {
			break
		}
	}
	return nil, s.examined, complete && !s.truncated && !s.indefinite, nil
}

// shapeSearch is the state of one shape layer run: the checks made so
// far, keyed by one keyer, and the scratch each source reuses.
type shapeSearch struct {
	v   *verifier
	opt Options

	// examined counts the containment checks made, against
	// opt.SearchBudget; steps counts enumeration nodes, against
	// maxSteps. truncated records that either ran out; indefinite that
	// a candidate check was not definitive.
	examined, steps, maxSteps int
	truncated, indefinite     bool

	// probes holds q ⊆Σ w for each probed source and merge, tried the
	// candidates verified, both by canonical key.
	probes map[string]containment.Decision
	tried  map[string]bool
	keyer  cq.Keyer

	// The source's variables, free ones first (nfree of them); dead,
	// n×n over them, marks the pairs whose merge is refuted. A quotient
	// puts variable i in block[i], whose representative is rep[block[i]],
	// its first variable. atoms and args hold the quotient built last.
	vars  []term.Term
	nfree int
	dead  []bool
	block []int
	rep   []term.Term
	atoms []instance.Atom
	args  []term.Term
}

// source probes p and its one-pair merges, then walks p's quotients.
func (s *shapeSearch) source(p *cq.CQ) (*cq.CQ, error) {
	s.vars = p.Vars() // Vars lists the free variables first
	n := len(s.vars)
	s.nfree = 0
	for _, x := range s.vars {
		if slices.Contains(p.Free, x) {
			s.nfree++
		}
	}
	s.block = slices.Grow(s.block[:0], n)[:n]
	s.rep = slices.Grow(s.rep[:0], n)[:n]
	s.dead = slices.Grow(s.dead[:0], n*n)[:n*n]
	clear(s.dead)
	for i, x := range s.vars {
		s.block[i], s.rep[i] = i, x
	}
	if refuted, err := s.probe(p); err != nil || refuted || s.truncated {
		return nil, err
	}
	for i := range n {
		for j := max(i+1, s.nfree); j < n; j++ {
			if stop.Cancelled(s.opt.Cancel) {
				return nil, stop.ErrCancelled
			}
			s.block[j] = i
			refuted, err := s.probe(p)
			s.block[j] = j
			if err != nil || s.truncated {
				return nil, err
			}
			s.dead[i*n+j], s.dead[j*n+i] = refuted, refuted
		}
	}
	return s.walk(p, 0, 0)
}

// probe decides q ⊆Σ w for the quotient of p under block and rep, once
// per canonical key, and reports whether it failed definitively.
func (s *shapeSearch) probe(p *cq.CQ) (bool, error) {
	atoms := s.quotient(p)
	k := s.keyer.Key(p.Free, atoms)
	d, seen := s.probes[string(k)]
	if !seen {
		if !s.grant() {
			return false, nil
		}
		w := cq.CQ{Name: s.v.q.Name, Free: p.Free, Atoms: atoms}
		var err error
		if d, err = s.v.containedIn(&w); err != nil {
			return false, err
		}
		s.probes[string(k)] = d
	}
	return !d.Holds && d.Definitive, nil
}

// walk assigns variables i… to blocks, nblocks of them opened so far,
// in restricted-growth order: each free variable opens a block, and
// each other variable joins an open block holding no variable it has a
// refuted merge with, or opens a new one.
func (s *shapeSearch) walk(p *cq.CQ, i, nblocks int) (*cq.CQ, error) {
	s.steps++
	if s.steps > s.maxSteps {
		s.truncated = true
		return nil, nil
	}
	if s.steps%256 == 0 && stop.Cancelled(s.opt.Cancel) {
		return nil, stop.ErrCancelled
	}
	if i == len(s.vars) {
		return s.candidate(p)
	}
	first := nblocks
	if i >= s.nfree {
		first = 0
	}
	for b := first; b <= nblocks; b++ {
		if b < nblocks && s.deadIn(i, b) {
			continue
		}
		s.block[i] = b
		next := nblocks
		if b == nblocks {
			s.rep[b] = s.vars[i]
			next++
		}
		w, err := s.walk(p, i+1, next)
		if err != nil || w != nil || s.truncated {
			return w, err
		}
	}
	return nil, nil
}

// deadIn reports whether block b holds a variable whose merge with
// variable i is refuted.
func (s *shapeSearch) deadIn(i, b int) bool {
	n := len(s.vars)
	for j := range i {
		if s.block[j] == b && s.dead[j*n+i] {
			return true
		}
	}
	return false
}

// candidate verifies the quotient walk reached when it is acyclic and
// neither verified nor refuted before; only a witness is copied.
func (s *shapeSearch) candidate(p *cq.CQ) (*cq.CQ, error) {
	atoms := s.quotient(p)
	if !hypergraph.IsAcyclic(atoms) {
		return nil, nil
	}
	k := s.keyer.Key(p.Free, atoms)
	if d, ok := s.probes[string(k)]; (ok && !d.Holds && d.Definitive) || s.tried[string(k)] {
		return nil, nil
	}
	if !s.grant() {
		return nil, nil
	}
	s.tried[string(k)] = true
	w := cq.CQ{Name: s.v.q.Name, Free: p.Free, Atoms: atoms}
	holds, definitive, err := s.v.verifyWitness(&w)
	if err != nil {
		return nil, err
	}
	if holds {
		return w.Clone(), nil
	}
	if !definitive {
		s.indefinite = true
	}
	return nil, nil
}

// grant spends one check of the budget, or records that none is left.
func (s *shapeSearch) grant() bool {
	if s.examined == s.opt.SearchBudget {
		s.truncated = true
		return false
	}
	s.examined++
	return true
}

// quotient builds the image of p's atoms under block and rep in the
// search's scratch; the atoms are valid until the next call.
func (s *shapeSearch) quotient(p *cq.CQ) []instance.Atom {
	s.atoms, s.args = imageAtoms(s.atoms, s.args, p.Atoms, func(t term.Term) term.Term {
		if k := slices.Index(s.vars, t); k >= 0 {
			return s.rep[s.block[k]]
		}
		return t
	})
	return s.atoms
}
