package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// canonicalKeyRef is the previous CanonicalKey, kept verbatim as the
// reference: it re-renders both atoms inside every sort comparison.
// CanonicalKey must agree with it byte for byte on every query whose
// names contain no byte 0x00, 0x01 or 0x02.
func canonicalKeyRef(q *CQ) string {
	atoms := instance.CloneAtoms(q.Atoms)

	fixed := make(map[term.Term]string, len(q.Free))
	for i, x := range q.Free {
		fixed[x] = fmt.Sprintf("F%d", i)
	}

	label := func(assign map[term.Term]string, t term.Term) string {
		if t.IsConst() {
			return "c:" + t.Name
		}
		if l, ok := fixed[t]; ok {
			return l
		}
		if l, ok := assign[t]; ok {
			return l
		}
		return "?"
	}

	render := func(assign map[term.Term]string, a instance.Atom) string {
		parts := make([]string, 0, len(a.Args)+1)
		parts = append(parts, a.Pred)
		for _, t := range a.Args {
			parts = append(parts, label(assign, t))
		}
		return strings.Join(parts, "\x00")
	}

	assign := make(map[term.Term]string)
	for round := 0; round < len(atoms)+2; round++ {
		sort.SliceStable(atoms, func(i, j int) bool {
			return render(assign, atoms[i]) < render(assign, atoms[j])
		})
		next := make(map[term.Term]string)
		n := 0
		for _, a := range atoms {
			for _, t := range a.Args {
				if !t.IsVar() {
					continue
				}
				if _, ok := fixed[t]; ok {
					continue
				}
				if _, ok := next[t]; !ok {
					next[t] = fmt.Sprintf("E%d", n)
					n++
				}
			}
		}
		same := len(next) == len(assign)
		if same {
			for k, v := range next {
				if assign[k] != v {
					same = false
					break
				}
			}
		}
		assign = next
		if same {
			break
		}
	}

	sort.SliceStable(atoms, func(i, j int) bool {
		return render(assign, atoms[i]) < render(assign, atoms[j])
	})
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = render(assign, a)
	}
	return fmt.Sprintf("free=%d|%s", len(q.Free), strings.Join(parts, "\x01"))
}

// randomKeyQuery draws a query of 1–7 atoms over predicates of mixed
// arity (0–3), with repeated variables, free variables (now and then
// repeated or absent from the body), constants whose names contain no
// separator byte, and the odd null.
func randomKeyQuery(r *rand.Rand) *CQ {
	consts := []string{"a", "b", "c:a", "F0", "E1", "?", "a b", "é", "", "\x03", "zz|"}
	arity := make([]int, 4)
	for p := range arity {
		arity[p] = r.Intn(4)
	}
	nv := 1 + r.Intn(6)
	pick := func() term.Term {
		switch x := r.Intn(10); {
		case x < 7:
			return term.Var(fmt.Sprintf("v%d", r.Intn(nv)))
		case x < 9:
			return term.Const(consts[r.Intn(len(consts))])
		default:
			return term.NullTerm(fmt.Sprintf("n%d", r.Intn(2)))
		}
	}
	q := &CQ{Name: "q"}
	for i := 1 + r.Intn(7); i > 0; i-- {
		p := r.Intn(len(arity))
		args := make([]term.Term, arity[p])
		for j := range args {
			args[j] = pick()
		}
		q.Atoms = append(q.Atoms, instance.Atom{Pred: fmt.Sprintf("P%d", p), Args: args})
	}
	for i := r.Intn(4); i > 0; i-- {
		q.Free = append(q.Free, term.Var(fmt.Sprintf("v%d", r.Intn(nv+1))))
	}
	return q
}

// TestCanonicalKeyMatchesReference: the single-render CanonicalKey is
// byte-identical to the reference on 100k random queries, and so is
// one Keyer reused across all of them, whose scratch carries the
// previous query's terms, labels and renderings into every call.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var k Keyer
	for trial := 0; trial < 100_000; trial++ {
		q := randomKeyQuery(r)
		want := canonicalKeyRef(q)
		if got := q.CanonicalKey(); got != want {
			t.Fatalf("trial %d: %s (free %v)\n got %q\nwant %q", trial, q, q.Free, got, want)
		}
		if got := k.Key(q.Free, q.Atoms); string(got) != want {
			t.Fatalf("trial %d, reused Keyer: %s (free %v)\n got %q\nwant %q", trial, q, q.Free, got, want)
		}
	}
}

// TestCanonicalKeySeparatorBytes: constant names holding the key's
// separator bytes no longer merge non-isomorphic queries, while
// isomorphic queries with such names still share a key and queries
// without them keep their old key.
func TestCanonicalKeySeparatorBytes(t *testing.T) {
	mk := func(free []term.Term, atoms ...instance.Atom) *CQ { return &CQ{Name: "q", Free: free, Atoms: atoms} }
	c := term.Const
	R := func(a, b term.Term) instance.Atom { return instance.NewAtom("R", a, b) }
	S := func(a term.Term) instance.Atom { return instance.NewAtom("S", a) }
	v, w := term.Var("x"), term.Var("u")
	distinct := [][2]*CQ{
		// 0x00 ends a field: "a\x00c:b" + "c" vs "a" + "b\x00c:c".
		{mk(nil, R(c("a\x00c:b"), c("c")), S(v)), mk(nil, R(c("a"), c("b\x00c:c")), S(v))},
		// 0x01 ends an atom: one R atom vs an R atom and an S atom.
		{mk(nil, R(c("a"), c("b\x01S\x00c:d"))), mk(nil, R(c("a"), c("b")), S(c("d")))},
		// The escape byte itself must not collide with an escaped separator.
		{mk(nil, R(c("a\x020"), c("b"))), mk(nil, R(c("a\x00"), c("b")))},
	}
	for i, p := range distinct {
		if ka, kb := p[0].CanonicalKey(), p[1].CanonicalKey(); ka == kb {
			t.Errorf("pair %d: %s and %s share key %q", i, p[0], p[1], ka)
		}
	}
	iso := [][2]*CQ{
		{mk(nil, R(c("a\x00b"), v), S(v)), mk(nil, S(w), R(c("a\x00b"), w))},
		{mk([]term.Term{v}, R(v, c("\x01\x02")), R(c("\x01\x02"), w)), mk([]term.Term{w}, R(w, c("\x01\x02")), R(c("\x01\x02"), v))},
	}
	for i, p := range iso {
		if ka, kb := p[0].CanonicalKey(), p[1].CanonicalKey(); ka != kb {
			t.Errorf("iso pair %d: keys differ\n%q\n%q", i, ka, kb)
		}
	}
	plain := mk([]term.Term{v}, R(v, c("a:b")), S(w))
	if got, want := plain.CanonicalKey(), canonicalKeyRef(plain); got != want {
		t.Errorf("separator-free key changed: %q, was %q", got, want)
	}
}

// TestAllocsCanonicalKey guards the single-render key: a 6-atom query
// costs three allocations, the argument codes and labels, the render
// buffer and the key string, whatever the number of refinement rounds
// (canonicalKeyRef pays about 130). A Keyer reused across queries
// allocates nothing once its scratch has grown.
func TestAllocsCanonicalKey(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	q := MustParse("q(x) :- R(x,y), R(y,z), S(z,'a'), R(z,w), T(w,x,y), S(y,v).")
	allocs := testing.AllocsPerRun(200, func() { _ = q.CanonicalKey() })
	t.Logf("CanonicalKey of a 6-atom query: %v allocs", allocs)
	if allocs > 3 {
		t.Fatalf("CanonicalKey allocates %v per call, want at most 3", allocs)
	}
	p := MustParse("q(x,y) :- R(x,y), R(y,z), R(z,x), S(x,'b').")
	var k Keyer
	allocs = testing.AllocsPerRun(200, func() {
		_ = k.Key(q.Free, q.Atoms)
		_ = k.Key(p.Free, p.Atoms)
	})
	if allocs != 0 {
		t.Fatalf("a reused Keyer allocates %v per pair of keys, want 0", allocs)
	}
}
