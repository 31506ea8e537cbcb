package cq

import (
	"testing"

	"semacyclic/internal/term"
)

func TestGaifmanGraph(t *testing.T) {
	q := MustParse("q :- R(x,y), S(y,z), T(w).")
	g := GaifmanGraph(q)
	if !g.Adjacent(x, y) || !g.Adjacent(y, x) {
		t.Error("x—y edge missing")
	}
	if !g.Adjacent(y, z) {
		t.Error("y—z edge missing")
	}
	if g.Adjacent(x, z) {
		t.Error("spurious x—z edge")
	}
	if got := len(g.Nodes()); got != 4 {
		t.Errorf("Nodes = %d", got)
	}
	if got := len(g.Components()); got != 2 {
		t.Errorf("Components = %d", got)
	}
}

func TestIsConnected(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"q :- R(x,y), S(y,z)", true},
		{"q :- R(x,y), S(z,w)", false},
		{"q :- R(x,x)", true},
		{"q :- R('a','b')", true},             // single variable-free atom
		{"q :- R('a','b'), S(x)", false},      // floating ground atom
		{"q :- R(x,y), S(y,z), T(z,x)", true}, // triangle
		{"q :- A('c'), B('c')", false},        // constants do not connect
		{"q(x) :- R(x,y), P(y), S(y,z)", true},
	}
	for _, c := range cases {
		q := MustParse(c.in + ".")
		if got := q.IsConnected(); got != c.want {
			t.Errorf("IsConnected(%s) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	q := MustParse("q(x,w) :- R(x,y), S(y,z), T(w), U('a').")
	comps := q.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d: %v", len(comps), comps)
	}
	// First component: R,S with free x.
	if comps[0].Size() != 2 || len(comps[0].Free) != 1 || comps[0].Free[0] != x {
		t.Errorf("component 0 = %s", comps[0])
	}
	if comps[1].Size() != 1 || len(comps[1].Free) != 1 || comps[1].Free[0] != term.Var("w") {
		t.Errorf("component 1 = %s", comps[1])
	}
	if comps[2].Size() != 1 || len(comps[2].Free) != 0 {
		t.Errorf("component 2 = %s", comps[2])
	}
	for _, c := range comps {
		if err := c.Validate(); err != nil {
			t.Errorf("component %s invalid: %v", c, err)
		}
		if !c.IsConnected() {
			t.Errorf("component %s not connected", c)
		}
	}
}

func TestConjoin(t *testing.T) {
	a := MustParse("q(x) :- R(x,y).")
	b := MustParse("p(x) :- S(x,z).")
	c := Conjoin(a, b)
	if c.Size() != 2 || len(c.Free) != 1 {
		t.Errorf("Conjoin = %s", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("conjunction invalid: %v", err)
	}
	// Boolean conjunction of variable-disjoint queries is disconnected.
	ab := MustParse("q :- R(x,y).")
	bb, _ := MustParse("q :- S(x,y).").RenameApart(ab)
	if Conjoin(ab, bb).IsConnected() {
		t.Error("disjoint conjunction reported connected")
	}
}

func TestCanonicalKeyIsomorphismInvariant(t *testing.T) {
	pairs := []struct {
		a, b string
		same bool
	}{
		{"q :- R(x,y), S(y,z)", "q :- S(b,c), R(a,b)", true},
		{"q :- R(x,y)", "q :- R(y,x)", true},
		{"q :- R(x,x)", "q :- R(x,y)", false},
		{"q(x) :- R(x,y)", "q(y) :- R(y,x)", true},
		{"q(x) :- R(x,y)", "q(y) :- R(x,y)", false}, // free var in different position
		{"q :- R(x,'a')", "q :- R(x,'b')", false},
		{"q :- R(x,y), R(y,x)", "q :- R(u,v), R(v,u)", true},
	}
	for _, p := range pairs {
		ka := MustParse(p.a + ".").CanonicalKey()
		kb := MustParse(p.b + ".").CanonicalKey()
		if (ka == kb) != p.same {
			t.Errorf("CanonicalKey(%s) vs (%s): same=%v, want %v", p.a, p.b, ka == kb, p.same)
		}
	}
}

func TestCanonicalKeyRenamingProperty(t *testing.T) {
	queries := []string{
		"q(x) :- R(x,y), S(y,z), R(z,x)",
		"q :- E(a,b), E(b,c), E(c,a)",
		"q :- P(x), P(y), Q(x,y)",
	}
	for _, in := range queries {
		q := MustParse(in + ".")
		r, s := q.RenameApart(q)
		// Free variables must keep their identity for the key to match,
		// so rename them back.
		inv := term.NewSubst()
		for _, fv := range q.Free {
			inv[s[fv]] = fv
		}
		r = r.ApplySubst(inv)
		if q.CanonicalKey() != r.CanonicalKey() {
			t.Errorf("%s: key changed under renaming\n%q\n%q", in, q.CanonicalKey(), r.CanonicalKey())
		}
	}
}

func TestDedupAtoms(t *testing.T) {
	q := MustParse("q :- R(x,y), R(x,y), S(y).")
	d := q.DedupAtoms()
	if d.Size() != 2 {
		t.Errorf("DedupAtoms = %s", d)
	}
	if q.Size() != 3 {
		t.Error("DedupAtoms mutated receiver")
	}
}
