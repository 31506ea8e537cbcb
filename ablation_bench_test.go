// Ablation benchmarks for the design choices DESIGN.md calls out: what
// each mechanism buys, measured by switching it off.
package semacyclic

import (
	"fmt"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/yannakakis"
)

// BenchmarkAblationRewriteCoreReduction measures the rewriting closure
// on a recursive sticky set, where per-disjunct core reduction is what
// makes the closure converge within the disjunct budget.
func BenchmarkAblationRewriteCoreReduction(b *testing.B) {
	set := deps.MustParse("P(x), P(y) -> R(x,y).\nR(x,y) -> P(z), Q(x,z).")
	q := cq.MustParse("q :- R(u,v).")
	b.Run("with-core-reduction", func(b *testing.B) {
		var disjuncts int
		var complete bool
		for i := 0; i < b.N; i++ {
			rw, err := rewrite.Rewrite(q, set, rewrite.Options{MaxDisjuncts: 200, MaxAtomsPerCQ: 6})
			if err != nil {
				b.Fatal(err)
			}
			disjuncts, complete = len(rw.UCQ.Disjuncts), rw.Complete
		}
		b.ReportMetric(float64(disjuncts), "disjuncts")
		b.ReportMetric(boolMetric(complete), "complete")
	})
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationRestrictedVsObliviousChase compares the two chase
// variants on a set whose oblivious chase does strictly more work.
func BenchmarkAblationRestrictedVsObliviousChase(b *testing.B) {
	set := deps.MustParse("E(x,y) -> S(x,w).\nE(x,y) -> E(y,x).")
	db := NewInstance()
	for i := 0; i < 30; i++ {
		db.Add(NewAtom("E", Const(fmt.Sprintf("a%d", i)), Const(fmt.Sprintf("a%d", (i+1)%30))))
	}
	for _, oblivious := range []bool{false, true} {
		name := "restricted"
		if oblivious {
			name = "oblivious"
		}
		b.Run(name, func(b *testing.B) {
			var atoms int
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(db, set, chase.Options{Oblivious: oblivious})
				if err != nil {
					b.Fatal(err)
				}
				atoms = res.Instance.Len()
			}
			b.ReportMetric(float64(atoms), "chase-atoms")
		})
	}
}

// BenchmarkAblationYannakakisVsBacktracking shows the asymptotic
// separation the acyclic reformulation buys: Boolean path queries of
// growing length over a graph engineered so that the generic
// backtracking join explores an exponential number of partial matches
// while the semijoin reducer stays linear.
func BenchmarkAblationYannakakisVsBacktracking(b *testing.B) {
	// A layered dead-end graph: `levels` ranks of `fan` nodes with all
	// edges between consecutive ranks. A path query one edge longer
	// than the rank count has no match, but backtracking only discovers
	// that after exploring Θ(fan^length) partial paths; the semijoin
	// reducer empties the relations in one linear pass.
	const fan, levels = 5, 8
	db := NewInstance()
	for l := 0; l+1 < levels; l++ {
		for i := 0; i < fan; i++ {
			for j := 0; j < fan; j++ {
				db.Add(NewAtom("E", Const(fmt.Sprintf("n%d_%d", l, i)), Const(fmt.Sprintf("n%d_%d", l+1, j))))
			}
		}
	}
	for _, length := range []int{4, 6, 8} {
		q := gen.PathCQ(length)
		if length >= levels {
			// Only the over-long query is unsatisfiable; shorter ones
			// keep the comparison honest on satisfiable inputs.
			if ans, _ := yannakakis.Evaluate(q, db); len(ans) > 0 {
				b.Fatal("test graph construction broken")
			}
		}
		b.Run(fmt.Sprintf("backtracking/len=%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hom.EvaluateBool(q, db)
			}
		})
		b.Run(fmt.Sprintf("yannakakis/len=%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := yannakakis.Evaluate(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationContainmentMethods compares the chase-based and
// rewriting-based containment procedures where both apply (NR sets).
func BenchmarkAblationContainmentMethods(b *testing.B) {
	set := deps.MustParse("A(x) -> B(x,z).\nB(x,y) -> C(y).")
	q := cq.MustParse("q :- A(u), B(u,v).")
	qp := cq.MustParse("q :- C(w).")
	for _, m := range []containment.Method{containment.MethodChase, containment.MethodRewrite} {
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dec, err := containment.Contains(q, qp, set, containment.Options{Method: m})
				if err != nil || !dec.Holds {
					b.Fatalf("containment lost: %+v %v", dec, err)
				}
			}
		})
	}
}

// BenchmarkAblationChaseDepthBudget shows the cost/completeness
// trade-off of the guarded chase depth budget.
func BenchmarkAblationChaseDepthBudget(b *testing.B) {
	set := deps.MustParse("Person(x) -> Parent(x,y).\nParent(x,y) -> Person(y).")
	q := cq.MustParse("q(x) :- Person(x).")
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var atoms int
			for i := 0; i < b.N; i++ {
				res, _, err := chase.Query(q, set, chase.Options{MaxDepth: depth})
				if err != nil {
					b.Fatal(err)
				}
				atoms = res.Instance.Len()
			}
			b.ReportMetric(float64(atoms), "chase-atoms")
		})
	}
}
