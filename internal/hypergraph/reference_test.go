package hypergraph

import (
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// gyoRef is the map-based GYO that the ear-removal kernel replaced,
// kept as the reference: atoms deduplicated by key, per-term occurrence
// maps, and the parent searched among the edges holding W's first term.
func gyoRef(atoms []instance.Atom) (*Forest, bool) {
	seen := make(map[string]bool, len(atoms))
	var nodes []instance.Atom
	for _, a := range atoms {
		if k := a.Key(); !seen[k] {
			seen[k] = true
			nodes = append(nodes, a)
		}
	}
	n := len(nodes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n == 0 {
		return &Forest{}, true
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	vars := make([][]term.Term, n)
	for i, a := range nodes {
		vars[i] = flexTerms(a)
	}
	occ := make(map[term.Term]int)
	occIn := make(map[term.Term][]int)
	for i := range nodes {
		for _, t := range vars[i] {
			occ[t]++
			occIn[t] = append(occIn[t], i)
		}
	}
	for remaining := n; remaining > 1; remaining-- {
		ear, earParent := -1, -1
		for i := 0; i < n && ear < 0; i++ {
			if !alive[i] {
				continue
			}
			var w []term.Term
			for _, t := range vars[i] {
				if occ[t] > 1 {
					w = append(w, t)
				}
			}
			if len(w) == 0 {
				ear, earParent = i, -1
				continue
			}
			for _, j := range occIn[w[0]] {
				if j == i || !alive[j] {
					continue
				}
				if containsAllRef(vars[j], w) {
					ear, earParent = i, j
					break
				}
			}
		}
		if ear < 0 {
			return nil, false
		}
		alive[ear] = false
		parent[ear] = earParent
		for _, t := range vars[ear] {
			occ[t]--
		}
	}
	return &Forest{Atoms: nodes, Parent: parent}, true
}

func containsAllRef(haystack, needles []term.Term) bool {
	for _, t := range needles {
		found := false
		for _, h := range haystack {
			if h == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// randomAtomList draws up to nine atoms over a few predicates (one with
// a NUL byte in its name) whose terms mix variables, nulls and
// constants — some names with NUL bytes, and a variable, a null and a
// constant sharing one name — and re-appends earlier atoms as
// duplicates.
func randomAtomList(r *rand.Rand) []instance.Atom {
	preds := []struct {
		name  string
		arity int
	}{{"E", 2}, {"F", 2}, {"R\x00S", 3}, {"P", 1}, {"T", 4}}
	pool := []term.Term{
		term.Var("x"), term.Var("y"), term.Var("z"), term.Var("w"), term.Var("a\x00b"),
		term.NullTerm("x"), term.NullTerm("n1"),
		term.Const("x"), term.Const("c"), term.Const("a\x00b"),
	}
	var atoms []instance.Atom
	for n := r.Intn(10); len(atoms) < n; {
		if len(atoms) > 0 && r.Intn(5) == 0 {
			atoms = append(atoms, atoms[r.Intn(len(atoms))].Clone())
			continue
		}
		p := preds[r.Intn(len(preds))]
		args := make([]term.Term, p.arity)
		for i := range args {
			args[i] = pool[r.Intn(len(pool))]
		}
		atoms = append(atoms, instance.Atom{Pred: p.name, Args: args})
	}
	return atoms
}

// TestIsAcyclicMatchesReference: IsAcyclic and GYO agree with the
// map-based reference on every verdict, GYO builds the reference's
// forest node for node, and every forest passes Verify.
func TestIsAcyclicMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(182))
	var acyclic, cyclic int
	for trial := 0; trial < 20000; trial++ {
		atoms := randomAtomList(r)
		want, wantOK := gyoRef(atoms)
		if got := IsAcyclic(atoms); got != wantOK {
			t.Fatalf("trial %d: IsAcyclic(%v) = %v, reference %v", trial, atoms, got, wantOK)
		}
		got, ok := GYO(atoms)
		if ok != wantOK {
			t.Fatalf("trial %d: GYO(%v) ok = %v, reference %v", trial, atoms, ok, wantOK)
		}
		if !ok {
			cyclic++
			continue
		}
		acyclic++
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: GYO(%v) has %d nodes, reference %d", trial, atoms, got.Len(), want.Len())
		}
		for i := range got.Atoms {
			if !got.Atoms[i].Equal(want.Atoms[i]) || got.Parent[i] != want.Parent[i] {
				t.Fatalf("trial %d: GYO(%v) node %d = %s (parent %d), reference %s (parent %d)",
					trial, atoms, i, got.Atoms[i], got.Parent[i], want.Atoms[i], want.Parent[i])
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("trial %d: GYO(%v): %v", trial, atoms, err)
		}
	}
	if acyclic < 1000 || cyclic < 1000 {
		t.Fatalf("generator skewed: %d acyclic, %d cyclic", acyclic, cyclic)
	}
}

// TestAllocsIsAcyclic guards the slab kernel: deciding acyclicity of a
// small query builds no forest, keys or per-atom slices (the map-based
// GYO took 24 to 43 allocations on these).
func TestAllocsIsAcyclic(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, src := range []string{
		"q :- E(x,y), E(y,z), E(z,x).",
		"q(x) :- R(x,y,z), E(x,y), E(y,z), S(z,'a').",
		"q :- E(x,y), E(y,z), E(z,w), E(w,v), F(v,x).",
		"q(x,y) :- R(x,y,z), E(y,z), E(z,w), T(w,v,u), E(v,u), P(x).",
	} {
		q := cq.MustParse(src)
		allocs := testing.AllocsPerRun(200, func() { _ = IsAcyclic(q.Atoms) })
		t.Logf("IsAcyclic of %d atoms: %v allocs", q.Size(), allocs)
		if allocs > 4 {
			t.Fatalf("IsAcyclic(%s) allocates %v per call, want at most 4", src, allocs)
		}
	}
}
