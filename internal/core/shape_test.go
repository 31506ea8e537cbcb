package core

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// TestShapeAgreesWithCompleteSearch is the shape layer's differential
// property test on random arity-≤2 workloads of every class it serves.
// Σ comes from gen.RandomWorkload (guarded sets from binaryGuarded:
// RandomWorkload's guards are ternary), and q is a random cyclic,
// constant-free query over Σ's binary predicates with up to two free
// variables: RandomWorkload's own queries are mostly acyclic, and a
// third of them pin a constant, which keeps the shape layer out. The
// layer runs on its own, on core(q), as Decide runs it after layer 1,
// so that layers 2 and 3 settle none of its answers first. Every yes
// must carry an acyclic witness that containment.Equivalent confirms.
// Every definitive no is checked by layer 4, which enumerates every
// acyclic query over the schema rather than quotients, up to the size
// of the largest source the layer read (core(q), or the largest
// disjunct of q's rewriting): Lemma 9 puts a witness of at most that
// size beside any witness. Layer 4 must find none, and only a run that
// exhausted its bound counts as agreement (a source past layer 4's
// depth cap of 2|q|+4 cannot); each class must reach a minimum of
// those. Under -race or -short the test runs fewer seeds.
func TestShapeAgreesWithCompleteSearch(t *testing.T) {
	seeds, minNo := int64(30), 5
	if testutil.RaceEnabled || testing.Short() {
		seeds, minNo = 8, 1
	}
	yes := 0
	for _, name := range []string{"guarded", "inclusion", "sticky", "nonrecursive", "keys"} {
		var agreed, truncated int
		for seed := int64(1); seed <= seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			_, set, _ := gen.RandomWorkload(r, name, 2, 4, 1, 3)
			if name == "guarded" {
				set = binaryGuarded(r, 2)
			}
			q := randomShapeQuery(r, set)
			c := hom.Core(q)
			if hypergraph.IsAcyclic(c.Atoms) {
				continue // layer 1 settles it
			}
			opt := Options{SearchBudget: 2000}.withDefaults()
			v := newVerifier(q, set, opt)
			class, err := shapeClass(v)
			if err != nil {
				t.Fatal(err)
			}
			if class == classNone {
				continue
			}
			w, _, settled, err := searchShape(c, class, v, opt)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case w != nil:
				yes++
				dec, err := containment.Equivalent(q, w, set, containment.Options{})
				if err != nil || !dec.Holds || !hypergraph.IsAcyclic(w.Atoms) {
					t.Errorf("%s seed %d: %s under %s: shape witness %s fails Equivalent (%+v, %v)", name, seed, q, set, w, dec, err)
				}
			case settled:
				bound := largestSource(t, q, c, class, set)
				w, _, _, exhausted, err := SearchComplete(q, set, Options{SearchBudget: 4000}, bound)
				switch {
				case err != nil:
					t.Fatal(err)
				case w != nil:
					t.Errorf("%s seed %d: %s under %s: shape answered a definitive no, layer 4 found %s", name, seed, q, set, w)
				case exhausted:
					agreed++
				default:
					truncated++
				}
			}
		}
		t.Logf("%s: %d definitive shape no confirmed by an exhausted layer 4, %d unconfirmed (layer 4 truncated)", name, agreed, truncated)
		if agreed < minNo {
			t.Errorf("%s: layer 4 confirmed %d definitive shape no, want at least %d", name, agreed, minNo)
		}
	}
	t.Logf("%d shape yes, each confirmed by containment.Equivalent", yes)
}

// binaryGuarded returns n random guarded tgds over binary E0, E1 and
// unary U0, U1: the guard Ei(x,y) holds every body variable, beside an
// optional side atom, and the head invents a successor of y, reverses
// the edge, or marks y.
func binaryGuarded(r *rand.Rand, n int) *deps.Set {
	x, y, z := term.Var("x"), term.Var("y"), term.Var("z")
	pred := func(p string) string { return fmt.Sprintf("%s%d", p, r.Intn(2)) }
	set := &deps.Set{}
	for range n {
		body := []instance.Atom{instance.NewAtom(pred("E"), x, y)}
		switch r.Intn(3) {
		case 0:
			body = append(body, instance.NewAtom(pred("E"), y, x))
		case 1:
			body = append(body, instance.NewAtom(pred("U"), x))
		}
		var head instance.Atom
		switch r.Intn(3) {
		case 0:
			head = instance.NewAtom(pred("E"), y, z) // ∃z
		case 1:
			head = instance.NewAtom(pred("E"), y, x)
		default:
			head = instance.NewAtom(pred("U"), y)
		}
		set.TGDs = append(set.TGDs, deps.MustTGD(body, []instance.Atom{head}))
	}
	return set
}

// randomShapeQuery returns a random cyclic query of three or four
// atoms over the binary predicates of Σ, with
// zero to two free variables and no constant.
func randomShapeQuery(r *rand.Rand, set *deps.Set) *cq.CQ {
	var preds []string
	for _, p := range set.Schema().Predicates() {
		if p.Arity == 2 {
			preds = append(preds, p.Name)
		}
	}
	slices.Sort(preds)
	for {
		base := gen.RandomCQ(r, 3+r.Intn(3)/2, 3+r.Intn(2), preds)
		if hypergraph.IsAcyclic(base.Atoms) {
			continue
		}
		vars := base.Vars()
		return cq.MustNew(vars[:min(r.Intn(3), len(vars))], base.Atoms)
	}
}

// largestSource returns the size of the largest query the shape layer
// took quotients of: c = core(q), or a disjunct of q's rewriting.
func largestSource(t *testing.T, q, c *cq.CQ, class witnessClass, set *deps.Set) int {
	t.Helper()
	if class != classRewritable {
		return c.Size()
	}
	rw, err := rewrite.Rewrite(q, set, rewrite.Options{})
	if err != nil || !rw.Complete {
		t.Fatalf("%s under %s: rewriting incomplete (%v)", q, set, err)
	}
	largest := 0
	for _, p := range rw.UCQ.Disjuncts {
		largest = max(largest, p.Size())
	}
	return largest
}

// TestShapeHandCases: the two guarded cases with terminating chases
// that ran out of budget in layer 4 are a definitive no from the shape
// layer, which takes under 5 ms of the decision (layers 2 and 3 still
// run first). The 3-cycle with a pendant edge under
// E(x,y) → E(y,z) has an infinite chase, so its checks run the bounded
// chase and are not all definitive: it must never become a yes.
func TestShapeHandCases(t *testing.T) {
	for _, c := range [][2]string{
		{"q :- E(x,y), E(y,z), E(z,x), P(w), E(w,x).", "P(x) -> E(x,y).\nE(x,y) -> P(y)."},
		{"q :- E(x,y), E(y,z), E(z,x), E(x,w).", "E(x,y) -> E(y,z).\nE(x,y) -> E(y,x)."},
	} {
		q, set := parseTemplate(t, c)
		best := time.Duration(1 << 62)
		for range 3 {
			res, err := Decide(q, set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range res.Stats.Layers {
				if l.Name == "shape" {
					best = min(best, time.Duration(l.WallNS))
				}
			}
			if res.Verdict != No || !res.Definitive || res.Layer != "shape" {
				t.Fatalf("%s: %s (definitive %v) in layer %q, want a definitive no from the shape layer", q, res.Verdict, res.Definitive, res.Layer)
			}
		}
		if !testutil.RaceEnabled && best > 5*time.Millisecond {
			t.Errorf("%s: the shape layer took %v at best of 3, want under 5ms", q, best)
		}
	}
	q, set := parseTemplate(t, [2]string{"q :- E(x,y), E(y,z), E(z,x), E(z,w).", "E(x,y) -> E(y,z)."})
	res, err := Decide(q, set, Options{SearchBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Yes {
		t.Fatalf("%s: yes with witness %s, want no or unknown", q, res.Witness)
	}
}

// TestShapeRenamingKeepsDecision: renaming every predicate changes no
// decision. bench gives every tenant its own predicate names and
// requires each tenant's fingerprint to equal tenant 0's.
func TestShapeRenamingKeepsDecision(t *testing.T) {
	pred := regexp.MustCompile(`\b([A-Z][A-Za-z0-9]*)\(`)
	for i, tpl := range decideColdTemplates() {
		renamed := [2]string{pred.ReplaceAllString(tpl[0], "T7_$1("), pred.ReplaceAllString(tpl[1], "T7_$1(")}
		var got [2]*Result
		for j, in := range [][2]string{tpl, renamed} {
			q, set := parseTemplate(t, in)
			res, err := Decide(q, set, Options{SearchBudget: 100})
			if err != nil {
				t.Fatal(err)
			}
			got[j] = res
		}
		a, b := got[0], got[1]
		if a.Verdict != b.Verdict || a.Definitive != b.Definitive || a.Layer != b.Layer || a.Candidates != b.Candidates {
			t.Errorf("template %d: %s/%v/%s/%d, renamed %s/%v/%s/%d", i, a.Verdict, a.Definitive, a.Layer, a.Candidates, b.Verdict, b.Definitive, b.Layer, b.Candidates)
		}
		if fa, fb := a.Stats.DeterministicFingerprint(), b.Stats.DeterministicFingerprint(); fa != fb {
			t.Errorf("template %d: fingerprint %s, renamed %s", i, fa, fb)
		}
	}
}

// TestShapeCancelMidEnumeration: the shape layer polls the decision's
// channel while it walks the quotients. The query's free triangle keeps
// every quotient cyclic, and its existential F-path folds under
// F(x,y) → F(y,x) at every even distance, so millions of partitions
// survive the pruning and no check ends the walk. Closed after 50 ms,
// the channel must stop the layer within 250 ms of the close.
func TestShapeCancelMidEnumeration(t *testing.T) {
	var b strings.Builder
	b.WriteString("q(x1,x2,x3) :- E(x1,x2), E(x2,x3), E(x3,x1), F(x1,y1)")
	for i := 1; i < 14; i++ {
		fmt.Fprintf(&b, ", F(y%d,y%d)", i, i+1)
	}
	b.WriteString(".")
	q := cq.MustParse(b.String())
	set := deps.MustParse("F(x,y) -> F(y,x).")
	cancel := make(chan struct{})
	opt := Options{SearchBudget: 1 << 30, Cancel: cancel}.withDefaults()
	v := newVerifier(q, set, opt)
	class, err := shapeClass(v)
	if class == classNone || err != nil {
		t.Fatalf("shapeClass = %v, %v; want a class", class, err)
	}
	var closedAt atomic.Int64
	timer := time.AfterFunc(50*time.Millisecond, func() {
		closedAt.Store(time.Now().UnixNano())
		close(cancel)
	})
	defer timer.Stop()
	_, n, settled, err := searchShape(q, class, v, opt)
	returned := time.Now()
	if !errors.Is(err, stop.ErrCancelled) {
		t.Fatalf("err = %v (settled %v after %d checks), want stop.ErrCancelled", err, settled, n)
	}
	if n == 0 {
		t.Fatal("cancelled before the layer made a check")
	}
	if lag := returned.Sub(time.Unix(0, closedAt.Load())); lag > 250*time.Millisecond {
		t.Fatalf("the shape layer returned %v after the cancel closed, want at most 250ms", lag)
	}
}
