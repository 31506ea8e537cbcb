package hom

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// orderAtomsRef is the previous orderAtoms, kept verbatim as the
// reference for the enumerator's buffer-reusing version: same score
// rule, same first-index tie-break.
func orderAtomsRef(atoms []instance.Atom, bound term.Subst) []instance.Atom {
	n := len(atoms)
	used := make([]bool, n)
	seen := make(map[term.Term]bool, len(bound))
	for t := range bound {
		seen[t] = true
	}
	score := func(a instance.Atom) int {
		s := 0
		for _, t := range a.Args {
			if t.IsConst() || seen[t] {
				s += 2
			}
		}
		return s
	}
	out := make([]instance.Atom, 0, n)
	for len(out) < n {
		best, bestScore := -1, -1
		for i, a := range atoms {
			if used[i] {
				continue
			}
			if s := score(a); s > bestScore {
				best, bestScore = i, s
			}
		}
		used[best] = true
		out = append(out, atoms[best])
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				seen[t] = true
			}
		}
	}
	return out
}

// randomPattern draws 1–7 atoms over predicates of arity 0–3 with
// repeated variables, constants and the odd null, plus a random bound
// set over some of its variables and nulls (and a term it never uses).
func randomPattern(r *rand.Rand) ([]instance.Atom, term.Subst) {
	arity := []int{r.Intn(4), r.Intn(4), r.Intn(4)}
	nv := 1 + r.Intn(6)
	pick := func() term.Term {
		switch x := r.Intn(10); {
		case x < 7:
			return term.Var(fmt.Sprintf("v%d", r.Intn(nv)))
		case x < 9:
			return term.Const(fmt.Sprintf("c%d", r.Intn(3)))
		default:
			return term.NullTerm(fmt.Sprintf("n%d", r.Intn(2)))
		}
	}
	var atoms []instance.Atom
	for i := 1 + r.Intn(7); i > 0; i-- {
		p := r.Intn(len(arity))
		args := make([]term.Term, arity[p])
		for j := range args {
			args[j] = pick()
		}
		atoms = append(atoms, instance.Atom{Pred: fmt.Sprintf("P%d", p), Args: args})
	}
	bound := term.NewSubst()
	for i := r.Intn(4); i > 0; i-- {
		t := pick()
		if t.IsConst() {
			t = term.Var(fmt.Sprintf("v%d", nv)) // bound but absent from the pattern
		}
		bound[t] = term.Const(fmt.Sprintf("c%d", r.Intn(3)))
	}
	return atoms, bound
}

// TestOrderAtomsMatchesReference: the pooled enumerator orders 100k
// random patterns exactly as the reference does under the same bound
// set, with its buffers recycled between trials.
func TestOrderAtomsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100_000; trial++ {
		atoms, bound := randomPattern(r)
		want := orderAtomsRef(atoms, bound)
		e := newEnumerator(atoms, nil, bound)
		got := slices.Clone(e.order)
		e.release()
		if !slices.EqualFunc(got, want, instance.Atom.Equal) {
			t.Fatalf("trial %d: bound %v\n got %v\nwant %v", trial, bound, got, want)
		}
	}
}

// homWorkload runs one fixed mix of Exists, Find, an early-stopping
// Enumerate and an Enumerate whose yield runs a nested Exists (the
// shape of chase.Satisfies) over a shared target, and renders every
// result as text.
func homWorkload(target *instance.Instance, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	v := func(i int) term.Term { return term.Var(fmt.Sprintf("x%d", i)) }
	E := func(a, b term.Term) instance.Atom { return instance.NewAtom("E", a, b) }
	path := []instance.Atom{E(v(0), v(1)), E(v(1), v(2)), E(v(2), v(3))}
	tri := []instance.Atom{E(v(0), v(1)), E(v(1), v(2)), E(v(2), v(0))}
	var b strings.Builder
	for round := 0; round < 20; round++ {
		init := term.Subst{v(0): term.Const(fmt.Sprintf("c%d", r.Intn(12)))}
		fmt.Fprintf(&b, "exists %v %v;", Exists(path, target, init), Exists(tri, target, init))
		if h, ok := Find(tri, target, init); ok {
			fmt.Fprintf(&b, "find %v;", h.ResolveTuple([]term.Term{v(0), v(1), v(2)}))
		}
		stop := 1 + r.Intn(5)
		Enumerate(path, target, init, func(s term.Subst) bool {
			fmt.Fprintf(&b, "path %v;", s.ResolveTuple([]term.Term{v(1), v(2), v(3)}))
			stop--
			return stop > 0
		})
		// For every edge, does its head close a triangle?
		f := term.NewSubst()
		Enumerate([]instance.Atom{E(v(0), v(1))}, target, nil, func(s term.Subst) bool {
			clear(f)
			f[v(0)], f[v(1)] = s.Resolve(v(0)), s.Resolve(v(1))
			fmt.Fprintf(&b, "%v", Exists(tri, target, f))
			return true
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPooledEnumeratorConcurrent: many goroutines share targets and
// the enumerator pool, nesting enumerations inside yields; every one
// gets exactly the results of a sequential run. Meant for
// `go test -race -count=10 ./internal/hom/`.
func TestPooledEnumeratorConcurrent(t *testing.T) {
	targets := []*instance.Instance{benchDB(60, 12), benchDB(120, 12), benchDB(200, 12)}
	PrepareTarget(targets[2]) // one target on the interned candidate path
	const workers = 8
	want := make([]string, workers)
	for w := range want {
		want[w] = homWorkload(targets[w%len(targets)], int64(w))
	}
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got[w] = homWorkload(targets[w%len(targets)], int64(w))
				if got[w] != want[w] {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range want {
		if got[w] != want[w] {
			t.Errorf("worker %d diverged from the sequential run:\n got %.200s\nwant %.200s", w, got[w], want[w])
		}
	}
}

// TestEnumeratorOutsizedNotPooled: an enumerator whose maps may have
// grown past maxPooledTerms is left to the collector, and the next one
// taken from the pool starts empty.
func TestEnumeratorOutsizedNotPooled(t *testing.T) {
	target := benchDB(200, 20)
	var pattern []instance.Atom
	for i := 0; i < maxPooledTerms; i++ {
		pattern = append(pattern, instance.NewAtom("E", term.Var(fmt.Sprintf("x%d", i)), term.Var(fmt.Sprintf("x%d", i+1))))
	}
	big := newEnumerator(pattern, target, nil)
	if big.rec(0, nil) {
		t.Fatal("no 64-edge walk in the fixture")
	}
	big.release()
	e := newEnumerator(nil, target, nil)
	if e == big {
		t.Fatal("outsized enumerator went back to the pool")
	}
	if len(e.sub) != 0 || len(e.seen) != 0 || len(e.order) != 0 || len(e.undo) != 0 {
		t.Fatalf("pooled enumerator not empty: sub %v seen %v order %v undo %v", e.sub, e.seen, e.order, e.undo)
	}
	e.release()
}

// TestAllocsExists: a steady-state Exists with a bound init allocates
// nothing — the substitution, undo stack, atom order and seen set all
// come from the pooled enumerator.
func TestAllocsExists(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race (sync.Pool drops items at random)")
	}
	target := benchDB(300, 30)
	x, y, z := term.Var("x"), term.Var("y"), term.Var("z")
	pattern := []instance.Atom{
		instance.NewAtom("E", x, y),
		instance.NewAtom("E", y, z),
		instance.NewAtom("E", z, x),
	}
	hit := term.Subst{x: term.Const("c7")}
	miss := term.Subst{x: term.Const("absent")}
	var found, missed bool
	allocs := testing.AllocsPerRun(1000, func() {
		found = Exists(pattern, target, hit)
		missed = !Exists(pattern, target, miss)
	})
	if !found || !missed {
		t.Fatalf("fixture: Exists = %v from c7, %v from an absent constant", found, !missed)
	}
	if allocs != 0 {
		t.Fatalf("Exists allocates %v per call pair, want 0", allocs)
	}
}
