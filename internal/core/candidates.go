package core

import (
	"errors"
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// searchQuotients explores homomorphic collapses and subqueries of q.
// Dropping an atom weakens the query (q ⊆ r plainly) while merging
// variables strengthens it (r ⊆ q plainly); since the BFS mixes both
// moves, every acyclic candidate gets a full two-sided equivalence
// verification. BFS with canonical-form dedup, budgeted. Moves are
// built and keyed in scratch; only an unseen one is copied, onto the
// queue.
func searchQuotients(q *cq.CQ, v *verifier, opt Options) (*cq.CQ, int, error) {
	start := q.DedupAtoms()
	var keyer cq.Keyer
	var moves moveGen
	seen := map[string]bool{string(keyer.Key(start.Free, start.Atoms)): true}
	queue := []*cq.CQ{start}
	examined := 0

	for len(queue) > 0 && examined < opt.SearchBudget {
		if stop.Cancelled(opt.Cancel) {
			return nil, examined, stop.ErrCancelled
		}
		cur := queue[0]
		queue = queue[1:]
		examined++

		if hypergraph.IsAcyclic(cur.Atoms) {
			ok, _, err := v.verifyWitness(cur)
			if err != nil {
				return nil, examined, err
			}
			if ok {
				return cur, examined, nil
			}
		}
		moves.each(cur, true, func(atoms []instance.Atom) {
			if k := keyer.Key(cur.Free, atoms); !seen[string(k)] {
				seen[string(k)] = true
				next := cq.CQ{Name: cur.Name, Free: cur.Free, Atoms: atoms}
				queue = append(queue, next.Clone())
			}
		})
	}
	return nil, examined, nil
}

// moveGen builds the one-step reductions of a query in scratch it
// owns: drop one atom (keeping free variables covered), then merge one
// variable pair y→x (x stays, y goes; y must be existential) over Vars
// order. A merge drops the duplicate atoms it creates, keeping first
// occurrences, so it yields exactly ApplySubst({y: x}).DedupAtoms().
// The query is duplicate-free, so a drop needs no dedup.
type moveGen struct {
	atoms []instance.Atom // the current move
	args  []term.Term     // the current merge's argument slab
}

// each calls yield with every move of cur, drops first when drops is
// set; Approximate runs the merges only. The atoms yield receives are
// valid until it returns.
func (g *moveGen) each(cur *cq.CQ, drops bool, yield func(atoms []instance.Atom)) {
	if drops && len(cur.Atoms) > 1 {
		for i := range cur.Atoms {
			if !coversFree(cur.Free, cur.Atoms, i) {
				continue
			}
			g.atoms = append(append(g.atoms[:0], cur.Atoms[:i]...), cur.Atoms[i+1:]...)
			yield(g.atoms)
		}
	}

	vars := cur.Vars()
	for i, x := range vars {
		for j, y := range vars {
			if i == j || slices.Contains(cur.Free, y) {
				continue
			}
			g.atoms, g.args = imageAtoms(g.atoms, g.args, cur.Atoms, func(t term.Term) term.Term {
				if t == y {
					return x
				}
				return t
			})
			yield(g.atoms)
		}
	}
}

// imageAtoms returns the image of src under mapTerm, built in the
// reused atoms and args buffers, without the duplicates the image
// creates (first occurrences kept). args is sized once per call, so it
// never moves while the atoms point into it; the result is valid until
// the buffers are reused.
func imageAtoms(atoms []instance.Atom, args []term.Term, src []instance.Atom, mapTerm func(term.Term) term.Term) ([]instance.Atom, []term.Term) {
	nargs := 0
	for _, a := range src {
		nargs += len(a.Args)
	}
	atoms, args = atoms[:0], slices.Grow(args[:0], nargs)
	for _, a := range src {
		start := len(args)
		for _, t := range a.Args {
			args = append(args, mapTerm(t))
		}
		b := instance.Atom{Pred: a.Pred, Args: args[start:len(args):len(args)]}
		if slices.ContainsFunc(atoms, b.Equal) {
			args = args[:start]
			continue
		}
		atoms = append(atoms, b)
	}
	return atoms, args
}

// selectionValid is Validate() == nil for a layer-3 selection, found
// by scanning: the selection's atoms come from one chased instance, so
// their arities agree, thawing left no frozen constant, and the free
// tuple was checked once for the layer. What can still fail is an
// empty selection, a chase null, or a free variable left uncovered.
func selectionValid(free []term.Term, sel []instance.Atom) bool {
	if len(sel) == 0 {
		return false
	}
	for _, a := range sel {
		if slices.ContainsFunc(a.Args, term.Term.IsNull) {
			return false
		}
	}
	return coversFree(free, sel, -1)
}

// coversFree reports whether every free variable occurs in an atom
// other than atoms[skip]; skip -1 excludes none.
func coversFree(free []term.Term, atoms []instance.Atom, skip int) bool {
	for _, x := range free {
		covered := false
		for j, a := range atoms {
			if j != skip && slices.Contains(a.Args, x) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// searchChaseSubsets enumerates acyclic connected atom-subsets of the
// (bounded, thawed) chase of q, the verifier's, up to the witness
// bound, checking both containments for each candidate.
func searchChaseSubsets(q *cq.CQ, v *verifier, opt Options, bound int) (*cq.CQ, int, error) {
	if bound <= 0 {
		bound = 2 * q.Size()
	}
	res, frozen, err := v.chaseQuery()
	if err != nil {
		if errors.Is(err, stop.ErrCancelled) {
			return nil, 0, err
		}
		// A failing egd chase means no instance satisfies q's pattern
		// constraints; no candidates from this layer.
		return nil, 0, nil
	}
	atoms := cq.ThawAtoms(res.Instance.Atoms())

	// The free variables after thawing: frozen tuple entries map back
	// to variables (possibly merged by egds).
	freeVars := make([]term.Term, len(frozen))
	for i, f := range frozen {
		if cq.IsFrozenConst(f) {
			freeVars[i] = cq.Thaw(f)
		} else {
			freeVars[i] = f // a rigid constant survived; cannot be free
		}
	}
	for i, f := range freeVars {
		if !f.IsVar() {
			return nil, 0, nil // frozen head merged into a constant: no CQ witness here
		}
		if slices.Contains(freeVars[:i], f) {
			return nil, 0, nil // egds merged two head variables: Validate refuses every selection
		}
	}

	// Grow connected subsets: start from each atom, extend by atoms
	// sharing a variable, up to the bound; dedup by canonical key. A
	// selection is validated, keyed and verified as it stands; only the
	// witness is copied.
	seen := make(map[string]bool)
	examined := 0
	steps := 0
	var witness *cq.CQ
	var keyer cq.Keyer

	var grow func(sel []instance.Atom, used []bool) (bool, error)
	grow = func(sel []instance.Atom, used []bool) (bool, error) {
		steps++
		if examined >= opt.SearchBudget || steps >= 50*opt.SearchBudget {
			return false, nil
		}
		if steps%256 == 0 && stop.Cancelled(opt.Cancel) {
			return false, stop.ErrCancelled
		}
		view := cq.CQ{Name: q.Name, Free: freeVars, Atoms: sel}
		if selectionValid(freeVars, sel) {
			if k := keyer.Key(freeVars, sel); !seen[string(k)] {
				seen[string(k)] = true
				examined++
				if hypergraph.IsAcyclic(sel) {
					ok, _, err := v.verifyWitness(&view)
					if err != nil {
						return false, err
					}
					if ok {
						witness = view.Clone()
						return true, nil
					}
				}
			}
		}
		if len(sel) >= bound {
			return false, nil
		}
		for i, a := range atoms {
			if used[i] || len(sel) > 0 && !sharesVar(a, sel) {
				continue
			}
			used[i] = true
			done, err := grow(append(sel, a), used)
			used[i] = false
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	}

	if _, err := grow(nil, make([]bool, len(atoms))); err != nil {
		return nil, examined, err
	}
	return witness, examined, nil
}

// sharesVar reports whether a has a variable that occurs in sel.
func sharesVar(a instance.Atom, sel []instance.Atom) bool {
	for _, t := range a.Args {
		if !t.IsVar() {
			continue
		}
		for _, b := range sel {
			if slices.Contains(b.Args, t) {
				return true
			}
		}
	}
	return false
}
