package semacyclic

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// randomDBForSchema builds a random ground database over the set's
// predicates (plus the query's), for semantic spot-checks.
func randomDBForSchema(r *rand.Rand, set *deps.Set, q *cq.CQ, size, domain int) *instance.Instance {
	sch, err := set.Schema().Union(q.Schema())
	if err != nil {
		panic(err)
	}
	preds := sch.Predicates()
	db := instance.New()
	for i := 0; i < size; i++ {
		p := preds[r.Intn(len(preds))]
		args := make([]term.Term, p.Arity)
		for j := range args {
			args[j] = term.Const(fmt.Sprintf("d%d", r.Intn(domain)))
		}
		db.Add(instance.NewAtom(p.Name, args...))
	}
	// Make sure every predicate exists in the schema even if no fact
	// landed on it.
	for _, p := range preds {
		db.Schema().Add(p.Name, p.Arity)
	}
	return db
}

// closeUnder chases db to a model of the set; returns nil when the egd
// chase fails (inconsistent random data) or the chase does not
// terminate within budget.
func closeUnder(db *instance.Instance, set *deps.Set) *instance.Instance {
	res, err := chase.Run(db, set, chase.Options{MaxSteps: 20000, MaxAtoms: 50000})
	if err != nil || !res.Complete {
		return nil
	}
	return res.Instance
}

// TestIntegrationWitnessSemantics: on random terminating-chase
// dependency sets and random queries, every Yes witness must agree with
// the original query on random models of Σ.
func TestIntegrationWitnessSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	trials := 0
	yeses := 0
	for trials < 120 {
		trials++
		var set *deps.Set
		switch trials % 3 {
		case 0:
			set = gen.RandomNonRecursive(r, 1+r.Intn(3))
		case 1:
			set = gen.RandomKeys2(r, 1+r.Intn(2), 2)
		default:
			set = deps.MustParse("P(x), P(y) -> R(x,y).") // Example 2 shape
		}
		var q *cq.CQ
		if r.Intn(2) == 0 {
			q = gen.RandomCQ(r, 2+r.Intn(4), 2+r.Intn(3), predsOf(set))
		} else {
			q = gen.RandomAcyclicCQ(r, 2+r.Intn(4), predsOf(set))
		}
		res, err := core.Decide(q, set, core.Options{SearchBudget: 800, SkipCompleteSearch: true})
		if err != nil {
			t.Fatalf("decide error on q=%s Σ=%s: %v", q, set, err)
		}
		if res.Verdict != core.Yes {
			continue
		}
		yeses++
		// Semantic spot-check on three random models.
		for m := 0; m < 3; m++ {
			db := closeUnder(randomDBForSchema(r, set, q, 10+r.Intn(25), 4), set)
			if db == nil {
				continue
			}
			want := hom.Evaluate(q, db)
			got := hom.Evaluate(res.Witness, db)
			if len(want) != len(got) {
				t.Fatalf("witness disagrees on a model:\nq=%s\nw=%s\nΣ=%s\nD=%s\nq(D)=%v\nw(D)=%v",
					q, res.Witness, set, db, want, got)
			}
			for i := range want {
				for j := range want[i] {
					if want[i][j] != got[i][j] {
						t.Fatalf("witness answers differ at %d: %v vs %v", i, want[i], got[i])
					}
				}
			}
			// And Yannakakis on the witness agrees too.
			fast, err := yannakakis.Evaluate(res.Witness, db)
			if err != nil {
				t.Fatalf("witness not evaluable by yannakakis: %v", err)
			}
			if len(fast) != len(want) {
				t.Fatalf("yannakakis on witness: %d vs %d answers", len(fast), len(want))
			}
		}
	}
	if yeses == 0 {
		t.Error("fuzz produced no positive decisions; generator too weak")
	}
}

func predsOf(set *deps.Set) []string {
	var out []string
	for _, p := range set.Schema().Predicates() {
		if p.Arity == 2 {
			out = append(out, p.Name)
		}
	}
	if len(out) == 0 {
		out = []string{"E"}
	}
	return out
}

// TestIntegrationContainmentMethodsAgree: chase-based and rewriting-
// based containment must coincide on non-recursive sets.
func TestIntegrationContainmentMethodsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	agreeChecks := 0
	for trial := 0; trial < 150; trial++ {
		set := gen.RandomNonRecursive(r, 1+r.Intn(3))
		preds := predsOf(set)
		q := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds)
		qp := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds)

		viaChase, err := containment.Contains(q, qp, set, containment.Options{Method: containment.MethodChase})
		if err != nil {
			t.Fatal(err)
		}
		viaRewrite, err := containment.Contains(q, qp, set, containment.Options{Method: containment.MethodRewrite})
		if err != nil {
			t.Fatal(err)
		}
		if !viaChase.Definitive || !viaRewrite.Definitive {
			continue
		}
		agreeChecks++
		if viaChase.Holds != viaRewrite.Holds {
			t.Fatalf("methods disagree on q=%s q'=%s Σ=%s: chase=%v rewrite=%v",
				q, qp, set, viaChase.Holds, viaRewrite.Holds)
		}
	}
	if agreeChecks < 50 {
		t.Errorf("only %d definitive comparisons; fuzz too weak", agreeChecks)
	}
}

// TestIntegrationChaseSatisfies: the completed chase is always a model.
func TestIntegrationChaseSatisfies(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 80; trial++ {
		var set *deps.Set
		if trial%2 == 0 {
			set = gen.RandomNonRecursive(r, 1+r.Intn(4))
		} else {
			set = gen.RandomKeys2(r, 1+r.Intn(3), 3)
		}
		db := randomDBForSchema(r, set, gen.PathCQ(1), 8+r.Intn(20), 4)
		res, err := chase.Run(db, set, chase.Options{MaxSteps: 20000})
		if err != nil {
			if errors.Is(err, chase.ErrFailed) {
				continue // inconsistent random data under keys: fine
			}
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("terminating-class chase did not complete: %s", set)
		}
		if !chase.Satisfies(res.Instance, set) {
			t.Fatalf("chase result violates Σ:\nΣ=%s\nresult=%s", set, res.Instance)
		}
		// Chase is monotone: the input atoms survive (tgd-only sets).
		if set.PureTGDs() {
			for _, a := range db.AtomsUnordered() {
				if !res.Instance.Has(a) {
					t.Fatalf("chase lost input atom %s", a)
				}
			}
		}
	}
}

// TestIntegrationApproximationSoundness: approximations are always
// acyclic and contained in the query.
func TestIntegrationApproximationSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		q := gen.RandomCQ(r, 3+r.Intn(3), 2+r.Intn(3), []string{"E", "F"})
		ap, err := core.Approximate(q, &deps.Set{}, core.Options{SearchBudget: 500})
		if err != nil {
			t.Fatal(err)
		}
		if !IsAcyclic(ap.Query) {
			t.Fatalf("approximation cyclic: %s (of %s)", ap.Query, q)
		}
		dec, err := containment.Contains(ap.Query, q, &deps.Set{}, containment.Options{})
		if err != nil || !dec.Holds {
			t.Fatalf("approximation unsound: %s ⊄ %s (%v)", ap.Query, q, err)
		}
	}
}

// TestIntegrationRewritingDisjunctsSound: every rewriting disjunct is
// Σ-contained in the input query (chase-verified), across random NR
// sets.
func TestIntegrationRewritingDisjunctsSound(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	for trial := 0; trial < 60; trial++ {
		set := gen.RandomNonRecursive(r, 1+r.Intn(3))
		q := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), predsOf(set))
		rw, err := rewrite.Rewrite(q, set, rewrite.Options{MaxDisjuncts: 300})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rw.UCQ.Disjuncts {
			dec, err := containment.Contains(d, q, set, containment.Options{Method: containment.MethodChase})
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Holds {
				t.Fatalf("unsound disjunct %s for q=%s Σ=%s", d, q, set)
			}
		}
	}
}

// TestIntegrationGameNeverMissesAnswers: the ∃1-cover game is complete
// w.r.t. homomorphisms (Proposition 30 direction) on random inputs.
func TestIntegrationGameNeverMissesAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for trial := 0; trial < 80; trial++ {
		q := gen.RandomCQ(r, 2+r.Intn(3), 2+r.Intn(3), []string{"E"})
		db := gen.RandomGraphDB(r, 10+r.Intn(30), 5)
		for _, ans := range hom.Evaluate(q, db) {
			if ok, err := game.Covers(q.Atoms, q.Free, db, ans, game.Options{}); err != nil || !ok {
				t.Fatalf("game rejected certified answer %v of %s", ans, q)
			}
		}
	}
}

// TestIntegrationUCQConsistency: DecideUCQ must agree with manually
// combining per-disjunct decisions and redundancy on random unions.
func TestIntegrationUCQConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(707))
	for trial := 0; trial < 60; trial++ {
		set := gen.RandomNonRecursive(r, 1+r.Intn(2))
		preds := predsOf(set)
		var disjuncts []*cq.CQ
		n := 2 + r.Intn(3)
		for i := 0; i < n; i++ {
			disjuncts = append(disjuncts, gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds))
		}
		u, err := cq.NewUCQ(disjuncts...)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{SearchBudget: 300, SkipCompleteSearch: true}
		res, err := core.DecideUCQ(u, set, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Every non-redundant disjunct has a per-disjunct result, and a
		// Yes union means each was Yes with an acyclic witness.
		for i := range disjuncts {
			if res.Redundant[i] {
				// Redundancy claim: Σ-contained in some other disjunct.
				found := false
				for j := range disjuncts {
					if i == j {
						continue
					}
					dec, err := containment.Contains(disjuncts[i], disjuncts[j], set, containment.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if dec.Holds {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: disjunct %d marked redundant without a container", trial, i)
				}
				continue
			}
			if res.PerDisjunct[i] == nil {
				t.Fatalf("trial %d: missing per-disjunct result %d", trial, i)
			}
			if res.Verdict == core.Yes && res.PerDisjunct[i].Verdict != core.Yes {
				t.Fatalf("trial %d: union yes but disjunct %d is %s", trial, i, res.PerDisjunct[i].Verdict)
			}
		}
		if res.Verdict == core.Yes {
			if res.Witness == nil {
				t.Fatalf("trial %d: yes union without witness", trial)
			}
			for _, w := range res.Witness.Disjuncts {
				if !IsAcyclic(w) {
					t.Fatalf("trial %d: cyclic union witness %s", trial, w)
				}
			}
		}
	}
}

// TestIntegrationMultiHeadRewritingAgreesWithChase adversarially
// cross-checks piece-rewriting against the chase oracle on
// non-recursive sets with multi-atom heads sharing existential
// variables — the hardest shape for the piece conditions.
func TestIntegrationMultiHeadRewritingAgreesWithChase(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	comparisons := 0
	positives := 0
	for trial := 0; trial < 250; trial++ {
		set := gen.RandomNonRecursiveMultiHead(r, 1+r.Intn(3))
		preds := predsOf(set)
		q := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds)
		qp := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds)

		viaChase, err := containment.Contains(q, qp, set, containment.Options{Method: containment.MethodChase})
		if err != nil {
			t.Fatal(err)
		}
		viaRewrite, err := containment.Contains(q, qp, set, containment.Options{Method: containment.MethodRewrite})
		if err != nil {
			t.Fatal(err)
		}
		if !viaChase.Definitive || !viaRewrite.Definitive {
			continue
		}
		comparisons++
		if viaChase.Holds {
			positives++
		}
		if viaChase.Holds != viaRewrite.Holds {
			t.Fatalf("methods disagree:\nq=%s\nq'=%s\nΣ=%s\nchase=%v rewrite=%v",
				q, qp, set, viaChase.Holds, viaRewrite.Holds)
		}
	}
	if comparisons < 100 || positives < 5 {
		t.Errorf("fuzz too weak: %d comparisons, %d positives", comparisons, positives)
	}
}

// TestIntegrationStickyRewritingAgreesWithChase cross-checks the
// rewriting on sticky sets whose chase happens to terminate (weakly
// acyclic), where the chase is a valid oracle.
func TestIntegrationStickyRewritingAgreesWithChase(t *testing.T) {
	r := rand.New(rand.NewSource(809))
	comparisons := 0
	for trial := 0; trial < 300 && comparisons < 80; trial++ {
		set := gen.RandomSticky(r, 1+r.Intn(2), 2)
		if len(set.TGDs) == 0 || !set.IsWeaklyAcyclic() {
			continue
		}
		preds := predsOf(set)
		q := gen.RandomCQ(r, 1+r.Intn(3), 2+r.Intn(2), preds)
		qp := gen.RandomCQ(r, 1+r.Intn(2), 2+r.Intn(2), preds)

		viaChase, err := containment.Contains(q, qp, set, containment.Options{Method: containment.MethodChase})
		if err != nil {
			t.Fatal(err)
		}
		viaRewrite, err := containment.Contains(q, qp, set, containment.Options{
			Method:  containment.MethodRewrite,
			Rewrite: rewrite.Options{MaxDisjuncts: 500},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !viaChase.Definitive || !viaRewrite.Definitive {
			continue
		}
		comparisons++
		if viaChase.Holds != viaRewrite.Holds {
			t.Fatalf("methods disagree:\nq=%s\nq'=%s\nΣ=%s\nchase=%v rewrite=%v",
				q, qp, set, viaChase.Holds, viaRewrite.Holds)
		}
	}
	if comparisons < 40 {
		t.Skipf("only %d definitive comparisons", comparisons)
	}
}
