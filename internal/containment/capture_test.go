package containment

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/term"
)

// renamed returns q with its variables, in Vars order, renamed to v
// followed by the numbers from the list in turn.
func renamed(q *cq.CQ, numbers []int) *cq.CQ {
	s := term.NewSubst()
	for i, v := range q.Vars() {
		s[v] = term.Var(fmt.Sprintf("v%d", numbers[i]))
	}
	return q.ApplySubst(s)
}

// rewritingKeys returns the canonical key of every disjunct of q's
// rewriting in order, and whether it is complete.
func rewritingKeys(t *testing.T, q *cq.CQ, set *deps.Set) ([]string, bool) {
	t.Helper()
	rw, err := rewrite.Rewrite(q, set, rewrite.Options{MaxDisjuncts: 500})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rw.UCQ.Disjuncts))
	for i, d := range rw.UCQ.Disjuncts {
		keys[i] = d.CanonicalKey()
	}
	return keys, rw.Complete
}

// TestRewritingNamesCannotCapture: the rewriting's tgd variables live
// in a namespace no query can use, so the answer never depends on how
// the user named the variables or on the process-wide fresh-name
// counter. When the renamed tgd variables took term.FreshVar names,
// q() :- S1(v3,v1), P(v3) lost the disjunct S1(x,y), P(y) under
// S1(x,y) → S1(y,w) right after the counter was reset, and a rewriting
// that still reported itself complete answered a definitive "not
// contained". Random sticky and non-recursive workloads, renamed to
// v1, v2, … and v<n>, …, v1 at several counter values, must keep their
// disjuncts, Complete and containment answers; and the rewriting must
// print the same twice and parse back.
func TestRewritingNamesCannotCapture(t *testing.T) {
	set := deps.MustParse("US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y).")
	left := cq.MustParse("q() :- S1(x,y), P(y).")
	for _, right := range []string{"q() :- S1(v3,v1), P(v3).", "q() :- S1(a3,a1), P(a3).", "q() :- S1(v2,v1), P(v2).", "q() :- S1(v5,v4), P(v5)."} {
		term.ResetFreshCounter()
		d, err := Contains(left, cq.MustParse(right), set, Options{})
		if err != nil || !d.Holds || !d.Definitive {
			t.Fatalf("%s ⊆Σ %s = %+v, %v; want a definitive yes", left, right, d, err)
		}
	}

	r := rand.New(rand.NewSource(2816))
	for _, class := range []string{"sticky", "nonrecursive"} {
		for trial := 0; trial < 60; trial++ {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 1+r.Intn(4), 1, 3)
			// The left-hand side drops q's last atom when that keeps
			// the head covered, so some checks need Σ to hold.
			lhs := q
			drop := &cq.CQ{Name: q.Name, Free: q.Free, Atoms: q.Atoms[:len(q.Atoms)-1]}
			if len(drop.Atoms) > 0 && drop.Validate() == nil {
				lhs = drop
			}
			wantKeys, wantComplete := rewritingKeys(t, q, set)
			want, err := Contains(lhs, q, set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := len(q.Vars())
			up, down := make([]int, n), make([]int, n)
			for i := range up {
				up[i], down[i] = i+1, n-i
			}
			for _, numbers := range [][]int{up, down} {
				named := renamed(q, numbers)
				for _, counter := range []int{0, 1, 2, 5} {
					term.ResetFreshCounter()
					for range counter {
						term.FreshVar()
					}
					keys, complete := rewritingKeys(t, named, set)
					if !slices.Equal(keys, wantKeys) || complete != wantComplete {
						t.Fatalf("%s, counter %d: rewriting of %s under\n%s\nhas %d disjuncts (complete %v), %s has %d (complete %v)",
							class, counter, named, set, len(keys), complete, q, len(wantKeys), wantComplete)
					}
					got, err := Contains(lhs, named, set, Options{})
					if err != nil || got != want {
						t.Fatalf("%s, counter %d: %s ⊆Σ %s = %+v, %v; with the original names %+v", class, counter, lhs, named, got, err, want)
					}
				}
			}
			rw1, err := rewrite.Rewrite(q, set, rewrite.Options{MaxDisjuncts: 500})
			if err != nil {
				t.Fatal(err)
			}
			rw2, _ := rewrite.Rewrite(q, set, rewrite.Options{MaxDisjuncts: 500})
			if rw1.UCQ.String() != rw2.UCQ.String() {
				t.Fatalf("two rewritings of %s print differently:\n%s\n--\n%s", q, rw1.UCQ, rw2.UCQ)
			}
			for _, d := range rw1.UCQ.Disjuncts {
				back, err := cq.Parse(d.String())
				if err != nil || back.CanonicalKey() != d.CanonicalKey() {
					t.Fatalf("disjunct %s does not parse back: %v", d, err)
				}
			}
		}
	}
}
