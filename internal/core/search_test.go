package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// TestSearchCompleteFindsWitness exercises layer 4 directly: under
// E(x,y) → E(x,x), the triangle is equivalent to the single-atom
// self-loop E(v,v), which only the canonical enumerator produces at
// bound 1.
func TestSearchCompleteFindsWitness(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(x,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	opt := Options{SearchBudget: 5000}.withDefaults()
	w, _, examined, _, err := SearchComplete(q, set, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatalf("no witness found (examined %d)", examined)
	}
	if w.Size() != 1 || !hypergraph.IsAcyclic(w.Atoms) {
		t.Errorf("witness = %s", w)
	}
	ok, _, err := newVerifier(q, set, opt).verifyWitness(w)
	if err != nil || !ok {
		t.Errorf("witness does not verify: %v", err)
	}
}

// TestSearchCompleteExhaustsTinyBound: with bound 1 over a schema whose
// single-atom candidates all fail, the enumeration exhausts and the
// caller may report a bound-relative definitive miss.
func TestSearchCompleteExhaustsTinyBound(t *testing.T) {
	set := deps.MustParse("E(x,y) -> E(y,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	opt := Options{SearchBudget: 5000}.withDefaults()
	w, _, _, exhausted, err := SearchComplete(q, set, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("unexpected witness %s", w)
	}
	if !exhausted {
		t.Error("tiny bound should exhaust")
	}
}

// TestSearchDiscardsWitnessAfterTruncatedSubtree pins layer 4's
// witness rule: a witness under a first atom counts only if the
// subtree of every earlier first atom was enumerated completely, since
// a truncated subtree may hide a witness that comes first in canonical
// order. Under an infinite guarded chase the bounded-chase checks of
// the candidates under the first atoms E0(t0,·) are indefinite, so the
// verified witness q(t0,t1) :- E0(s0,t0), E1(t0,t1), which comes later,
// is discarded: the run stops after five verifications, four of them
// indefinite, claims no exhaustion and leaves the decisive count
// undefined. A larger budget changes nothing.
func TestSearchDiscardsWitnessAfterTruncatedSubtree(t *testing.T) {
	q := cq.MustParse("q(t0,t1) :- E1(t0,t1), E0(t2,t0), E1(t3,t1), E0(t4,t3).")
	set := deps.MustParse("E0(x,y) -> E0(y,z).\nE1(x,y) -> E1(y,x).")
	later := cq.MustParse("q(t0,t1) :- E0(s0,t0), E1(t0,t1).")
	holds, definitive, err := newVerifier(q, set, Options{}.withDefaults()).verifyWitness(later)
	if err != nil || !holds || !definitive {
		t.Fatalf("%s: holds %v, definitive %v, err %v; want a definitive witness", later, holds, definitive, err)
	}
	for _, budget := range []int{60, 1000} {
		w, st, examined, exhausted, err := SearchComplete(q, set, Options{SearchBudget: budget}, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := st.Search
		if w != nil || exhausted || s.Exhausted || examined != 5 || s.Indefinite != 4 || s.Candidates != -1 {
			t.Errorf("budget %d: witness %v, exhausted %v/%v, examined %d, indefinite %d, candidates %d; want no witness after 5 verifications, 4 indefinite, candidates -1",
				budget, w, exhausted, s.Exhausted, examined, s.Indefinite, s.Candidates)
		}
		if m := st.Containment.Method; m != string(containment.MethodBounded) {
			t.Errorf("budget %d: method %q, want %q", budget, m, containment.MethodBounded)
		}
	}
}

// TestSearchCompleteCapReportsNonExhaustive: when the class bound is
// capped, exhaustion must be withheld.
func TestSearchCompleteCapReportsNonExhaustive(t *testing.T) {
	set := deps.MustParse("A(x) -> B(x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x), B(x).")
	opt := Options{SearchBudget: 30}.withDefaults()
	// Class bound far above the cap.
	_, _, _, exhausted, err := SearchComplete(q, set, opt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if exhausted {
		t.Error("capped search claimed exhaustion")
	}
}

func TestDecideUCQUnknownPath(t *testing.T) {
	// A cyclic disjunct under a set outside every class with a witness
	// bound (full and recursive through W, not guarded, not sticky, not
	// NR): the verdict must degrade to unknown, not no. The rules only
	// produce W-atoms, so no acyclic reformulation of the E-triangle
	// can exist — but without a bound the library cannot certify that.
	set := deps.MustParse("E(x,y), E(y,z) -> W(x,z).\nW(x,y), E(y,z) -> W(x,z).")
	if set.IsGuarded() || set.IsSticky() || set.IsNonRecursive() {
		t.Fatalf("premise wrong: %v", set.Classes())
	}
	tri := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	other := cq.MustParse("q :- G(x).")
	u, err := cq.NewUCQ(tri, other)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecideUCQ(u, set, Options{SearchBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Yes {
		t.Fatalf("spurious yes: %+v", res)
	}
	if res.Verdict == No && res.Definitive {
		t.Errorf("definitive no outside decidable classes: %+v", res)
	}
}

func TestDecideCancellation(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	// A cyclic query with constraints so layers 2+ run and observe the
	// already-closed cancel channel.
	set := deps.MustParse("E(x,y) -> E(y,x).")
	q := cq.MustParse("q :- E(x,y), E(y,z), E(z,x).")
	_, err := Decide(q, set, Options{Cancel: cancel})
	if err == nil {
		t.Fatal("cancelled decision returned no error")
	}
	if !errors.Is(err, stop.ErrCancelled) {
		t.Errorf("error = %v", err)
	}
}

// TestDecideUnsatisfiableQuery: a query whose chase fails under the
// key is Σ-unsatisfiable, hence equivalent to the acyclic clash query
// built from the key itself.
func TestDecideUnsatisfiableQuery(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	// Cyclic AND unsatisfiable: the key forces 'a' = 'b'.
	q := cq.MustParse("q :- R(x,'a'), R(x,'b'), E(x,u), E(u,w), E(w,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer != "unsatisfiable" {
		t.Fatalf("result = %+v", res)
	}
	if !hypergraph.IsAcyclic(res.Witness.Atoms) {
		t.Errorf("witness cyclic: %s", res.Witness)
	}
	// The witness must itself be Σ-unsatisfiable: its chase fails too.
	if _, _, err := chase.Query(res.Witness, set, chase.Options{}); err == nil {
		t.Error("witness chase should fail")
	}
}

// TestDecideUnsatisfiableWithFreeVars keeps the head intact.
func TestDecideUnsatisfiableWithFreeVars(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q(v) :- R(x,'a'), R(x,'b'), E(x,v), E(v,u), E(u,x).")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Witness.Free) != 1 || res.Witness.Free[0].Name != "v" {
		t.Errorf("witness head wrong: %s", res.Witness)
	}
}

// TestSatisfiableConstantQueryUnaffected: the unsat path must not trip
// on satisfiable queries with constants.
func TestSatisfiableConstantQueryUnaffected(t *testing.T) {
	set := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	q := cq.MustParse("q :- R(x,'a'), S(x,'b').")
	res, err := Decide(q, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer == "unsatisfiable" {
		t.Fatalf("result = %+v", res)
	}
}

// TestSearchIgnoresFreeVariableNames: layer 4 must not depend on how
// the free variables are named. Fresh variables are named s0, s1, …,
// and the search used to take any pool term named s<k> for fresh rank
// k, so a free variable s1 was also "fresh rank 1": the canonical
// introduction skipped or miscounted it and the pool held the term
// twice. Renaming the free variables of random workloads from f0, f1
// to s0, s1 changed the examined or node count of most of them, and
// for some whether a witness was found. Both namings must now give
// the same witness up to the renaming, the same examined count and
// exhaustion flag, and the same deterministic fingerprint.
func TestSearchIgnoresFreeVariableNames(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	opt := Options{SearchBudget: 60}
	compared := 0
	for round := 0; compared < 50 && round < 40; round++ {
		for _, class := range gen.WorkloadClasses {
			q, set, _ := gen.RandomWorkload(r, class, 2, 3, 1, 4)
			if len(q.Free) == 0 {
				continue
			}
			fq, fFree, ok := renameFree(q, "f")
			sq, sFree, ok2 := renameFree(q, "s")
			if !ok || !ok2 {
				continue
			}
			compared++
			bound := 2 * q.Size()
			fw, fst, fn, fex, err := SearchComplete(fq, set, opt, bound)
			if err != nil {
				t.Fatal(err)
			}
			sw, sst, sn, sex, err := SearchComplete(sq, set, opt, bound)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s under %s", fq, set)
			if fn != sn || fex != sex {
				t.Errorf("%s: examined %d, exhausted %v; with free variables %v: %d, %v", name, fn, fex, sFree, sn, sex)
			}
			if (fw == nil) != (sw == nil) {
				t.Errorf("%s: witness %v; with free variables %v: %v", name, fw, sFree, sw)
			} else if fw != nil {
				// Rename the s-run's witness back: its free variables to
				// f0, f1, and its k-th fresh name to the f-run's k-th.
				back := map[term.Term]term.Term{}
				for i, x := range sFree {
					back[x] = fFree[i]
				}
				n := 8 * bound
				fNames, sNames := freshNames(fFree, n), freshNames(sFree, n)
				for k, v := range sNames {
					back[v] = fNames[k]
				}
				got := sw.Clone()
				for _, a := range got.Atoms {
					for j, x := range a.Args {
						if y, ok := back[x]; ok {
							a.Args[j] = y
						}
					}
				}
				if got.Free = fFree; got.String() != fw.String() {
					t.Errorf("%s: witness %s; with free variables %v, renamed back: %s", name, fw, sFree, got)
				}
			}
			if f, s := fst.DeterministicFingerprint(), sst.DeterministicFingerprint(); f != s {
				t.Errorf("%s: fingerprint\n%s\nwith free variables %v:\n%s", name, f, sFree, s)
			}
		}
	}
	if compared < 50 {
		t.Fatalf("compared %d workloads with free variables, want at least 50", compared)
	}
}

// renameFree renames q's free variables to prefix0, prefix1, …; ok is
// false when such a name already occurs in q.
func renameFree(q *cq.CQ, prefix string) (*cq.CQ, []term.Term, bool) {
	s := term.NewSubst()
	free := make([]term.Term, len(q.Free))
	for i, x := range q.Free {
		free[i] = term.Var(fmt.Sprint(prefix, i))
		if slices.Contains(q.Vars(), free[i]) {
			return nil, nil, false
		}
		s[x] = free[i]
	}
	return q.ApplySubst(s), free, true
}
