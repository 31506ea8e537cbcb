package core

import (
	"math/rand"
	"slices"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// quotientMoves is the previous layer-2 move list, kept as the
// reference for moveGen: the one-step reductions of cur, each a query
// of its own — drop one atom (keeping free variables covered) or merge
// one variable pair (never merging two distinct free variables).
func quotientMoves(cur *cq.CQ) []*cq.CQ {
	var out []*cq.CQ

	// Drop an atom.
	if len(cur.Atoms) > 1 {
		free := make(map[term.Term]bool, len(cur.Free))
		for _, x := range cur.Free {
			free[x] = true
		}
		for i := range cur.Atoms {
			rest := make([]instance.Atom, 0, len(cur.Atoms)-1)
			rest = append(rest, cur.Atoms[:i]...)
			rest = append(rest, cur.Atoms[i+1:]...)
			covered := make(map[term.Term]bool)
			for _, a := range rest {
				for _, v := range a.Vars() {
					covered[v] = true
				}
			}
			ok := true
			for _, x := range cur.Free {
				if !covered[x] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// cur is duplicate-free, so rest is too: no dedup needed.
			out = append(out, &cq.CQ{Name: cur.Name, Free: append([]term.Term(nil), cur.Free...), Atoms: rest})
		}
	}

	// Merge a variable pair (x stays, y goes; y must be existential).
	vars := cur.Vars()
	free := make(map[term.Term]bool, len(cur.Free))
	for _, x := range cur.Free {
		free[x] = true
	}
	for i, x := range vars {
		for j, y := range vars {
			if i == j || free[y] {
				continue
			}
			s := term.Subst{y: x}
			out = append(out, cur.ApplySubst(s).DedupAtoms())
		}
	}
	return out
}

// sameQuery reports whether a and b have the same name, free variables
// and atoms, in the same order.
func sameQuery(a, b *cq.CQ) bool {
	return a.Name == b.Name && slices.Equal(a.Free, b.Free) &&
		slices.EqualFunc(a.Atoms, b.Atoms, instance.Atom.Equal)
}

// TestQuotientMovesMatchesReference: moveGen yields the reference's
// moves, atom for atom and in the same order, for random queries of
// every workload class and their one- and two-step moves; its merges
// alone are the reference's merge tail, as Approximate runs them; and
// one Keyer reused across all moves gives each move's CanonicalKey.
func TestQuotientMovesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var g moveGen
	var keyer cq.Keyer
	compared := 0
	check := func(cur *cq.CQ) []*cq.CQ {
		want := quotientMoves(cur)
		var got, merges []*cq.CQ
		g.each(cur, true, func(atoms []instance.Atom) {
			m := (&cq.CQ{Name: cur.Name, Free: cur.Free, Atoms: atoms}).Clone()
			if k, wk := keyer.Key(cur.Free, atoms), m.CanonicalKey(); string(k) != wk {
				t.Fatalf("move %d of %s: reused Keyer gives %q, CanonicalKey %q", len(got), cur, k, wk)
			}
			got = append(got, m)
		})
		g.each(cur, false, func(atoms []instance.Atom) {
			merges = append(merges, (&cq.CQ{Name: cur.Name, Free: cur.Free, Atoms: atoms}).Clone())
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d moves, reference %d", cur, len(got), len(want))
		}
		for i := range want {
			if !sameQuery(got[i], want[i]) {
				t.Fatalf("%s: move %d is %s (free %v), reference %s (free %v)", cur, i, got[i], got[i].Free, want[i], want[i].Free)
			}
		}
		nexist := len(cur.Vars()) - len(cur.Free)
		nmerge := nexist * (len(cur.Vars()) - 1)
		if len(merges) != nmerge || !slices.EqualFunc(merges, want[len(want)-nmerge:], sameQuery) {
			t.Fatalf("%s: merges alone %v, reference tail %v", cur, merges, want[len(want)-nmerge:])
		}
		compared += len(want)
		return want
	}
	for _, class := range gen.WorkloadClasses {
		for trial := 0; trial < 12; trial++ {
			q, _, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 2+r.Intn(4), 4, 3)
			for _, m := range check(q.DedupAtoms()) {
				check(m)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no moves compared")
	}
	t.Logf("%d moves compared", compared)
}
