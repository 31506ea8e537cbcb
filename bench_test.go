// Benchmarks regenerating every experiment of DESIGN.md §4 — one bench
// per example/figure/theorem-claim of the paper. Run with:
//
//	go test -bench=. -benchmem
//
// The printed metrics (ns/op and custom ReportMetric series) are the
// measured counterparts of the paper's claims; EXPERIMENTS.md records
// the expected shapes.
package semacyclic

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/connect"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/pcp"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/yannakakis"
)

// BenchmarkE1_Example1Reformulation measures the SemAc decision for
// Example 1 and the two evaluation strategies on a fixed store.
func BenchmarkE1_Example1Reformulation(b *testing.B) {
	q := gen.Example1Query()
	set := gen.Example1TGD()
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Decide(q, set, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	r := rand.New(rand.NewSource(1))
	db := gen.Example1DB(r, 150, 150, 10)
	res, err := core.Decide(q, set, core.Options{})
	if err != nil || res.Verdict != core.Yes {
		b.Fatalf("decide: %v %v", res, err)
	}
	b.Run("generic-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hom.Evaluate(q, db)
		}
	})
	b.Run("yannakakis-witness", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := yannakakis.Evaluate(res.Witness, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_CliqueBlowup measures the quadratic chase of Example 2.
func BenchmarkE2_CliqueBlowup(b *testing.B) {
	set := gen.Example2Set()
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := gen.Example2Query(n)
			var atoms int
			for i := 0; i < b.N; i++ {
				res, _, err := chase.Query(q, set, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				atoms = res.Instance.Len()
			}
			b.ReportMetric(float64(atoms), "chase-atoms")
		})
	}
}

// BenchmarkE3_StickyExponentialRewriting measures the 2^n rewriting of
// Example 3.
func BenchmarkE3_StickyExponentialRewriting(b *testing.B) {
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			set, q := gen.Example3Set(n)
			var disjuncts, height int
			for i := 0; i < b.N; i++ {
				rw, err := rewrite.Rewrite(q, set, rewrite.Options{})
				if err != nil {
					b.Fatal(err)
				}
				disjuncts, height = len(rw.UCQ.Disjuncts), rw.UCQ.Height()
			}
			b.ReportMetric(float64(disjuncts), "disjuncts")
			b.ReportMetric(float64(height), "max-atoms")
		})
	}
}

// BenchmarkE4_KeyChase measures the egd chase of Example 4.
func BenchmarkE4_KeyChase(b *testing.B) {
	q := gen.Example4Query()
	set := gen.Example4Key()
	for i := 0; i < b.N; i++ {
		res, _, err := chase.Query(q, set, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if hypergraph.IsAcyclic(cq.ThawAtoms(res.Instance.AtomsUnordered())) {
			b.Fatal("chase result unexpectedly acyclic")
		}
	}
}

// BenchmarkE5_GridFromKeys measures the Figure 4 cascade: tree query →
// key chase → n×n grid.
func BenchmarkE5_GridFromKeys(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q, keys := gen.Example5Grid(n)
			var atoms int
			for i := 0; i < b.N; i++ {
				res, _, err := chase.Query(q, keys, chase.Options{})
				if err != nil {
					b.Fatal(err)
				}
				atoms = res.Instance.Len()
			}
			b.ReportMetric(float64(atoms), "chase-atoms")
		})
	}
}

// BenchmarkF1_StickyMarking measures the marking procedure on growing
// sticky sets.
func BenchmarkF1_StickyMarking(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 64} {
		set := gen.RandomSticky(r, n, 4)
		b.Run(fmt.Sprintf("tgds=%d", len(set.TGDs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !set.IsSticky() {
					b.Fatal("generator broke")
				}
			}
		})
	}
}

// BenchmarkF2_PCPConstruction measures the Theorem 7 equivalence check
// on a solvable instance.
func BenchmarkF2_PCPConstruction(b *testing.B) {
	inst := pcp.Instance{W1: []string{"ab", "ba"}, W2: []string{"ab", "ba"}}.Normalize()
	q, set, err := pcp.Build(inst)
	if err != nil {
		b.Fatal(err)
	}
	w, err := inst.SolutionQuery([]int{1, 2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		dec, err := containment.Equivalent(q, w, set, containment.Options{})
		if err != nil || !dec.Holds {
			b.Fatalf("equivalence lost: %v %v", dec, err)
		}
	}
}

// BenchmarkF3_CompactWitness measures Lemma 9 extraction on random
// acyclic instances; the reported ratio must stay ≤ 2.
func BenchmarkF3_CompactWitness(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	q := gen.RandomAcyclicCQ(r, 40, []string{"E"})
	f, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		b.Fatal("generator broke")
	}
	marked := map[string]bool{}
	for _, a := range q.Atoms {
		if r.Intn(4) == 0 {
			marked[a.Key()] = true
		}
	}
	if len(marked) == 0 {
		marked[q.Atoms[0].Key()] = true
	}
	worst := 0.0
	for i := 0; i < b.N; i++ {
		j, err := hypergraph.Compact(f, marked)
		if err != nil {
			b.Fatal(err)
		}
		if ratio := float64(len(j)) / float64(len(marked)); ratio > worst {
			worst = ratio
		}
	}
	b.ReportMetric(worst, "size-ratio")
}

// BenchmarkT1_SemAc measures the decision procedure per dependency
// class on the Example 1 family.
func BenchmarkT1_SemAc(b *testing.B) {
	classes := []struct {
		name string
		set  *deps.Set
	}{
		{"guarded", deps.MustParse("Owns(x,y) -> Owns2(x,y,z).\nOwns2(x,y,z) -> Interest(x,z).")},
		{"inclusion", deps.MustParse("Owns(x,y) -> Interest(x,z).")},
		{"non-recursive", gen.Example1TGD()},
		{"sticky", deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,z).")},
		{"keysK2", deps.MustParse("Owns(x,y), Owns(x,z) -> y = z.")},
	}
	q := gen.Example1Query()
	for _, c := range classes {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Decide(q, c.set, core.Options{SearchBudget: 2000, SkipCompleteSearch: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT2_FPTEvaluation measures the Prop. 24 pipeline's per-
// database cost across database scales — linear in |D|.
func BenchmarkT2_FPTEvaluation(b *testing.B) {
	q := gen.Example1Query()
	set := gen.Example1TGD()
	p, err := core.CompilePlan(q, set, core.Options{}, core.MethodYannakakis)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for _, scale := range []int{100, 200, 400, 800} {
		db := gen.Example1DB(r, scale, scale, 10)
		b.Run(fmt.Sprintf("atoms=%d", db.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Execute(db, core.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT3_CoverGameEvaluation measures Theorem 25's game-based
// evaluation against direct evaluation.
func BenchmarkT3_CoverGameEvaluation(b *testing.B) {
	q := cq.MustParse("q(x) :- E(x,y), P(x).")
	r := rand.New(rand.NewSource(5))
	db := gen.RandomGraphDB(r, 300, 80)
	b.Run("game", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := game.Evaluate(q.Atoms, q.Free, db, game.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hom.Evaluate(q, db)
		}
	})
}

// BenchmarkT4_RewritingBounds measures rewriting sizes against the
// f_C(q,Σ) bounds of Props. 17/19.
func BenchmarkT4_RewritingBounds(b *testing.B) {
	set := deps.MustParse("A(x) -> B(x,z).\nB(x,y) -> C(y).")
	q := cq.MustParse("q :- C(u), B(w,u).")
	bound := rewrite.HeightBound(q, set)
	var height int
	for i := 0; i < b.N; i++ {
		rw, err := rewrite.Rewrite(q, set, rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		height = rw.UCQ.Height()
		if height > bound {
			b.Fatalf("height %d exceeds bound %d", height, bound)
		}
	}
	b.ReportMetric(float64(height), "height")
	b.ReportMetric(float64(bound), "bound")
}

// BenchmarkT5_Approximation measures §8.2 approximations of cyclic
// queries.
func BenchmarkT5_Approximation(b *testing.B) {
	q := cq.MustParse("q(x) :- E(x,y), E(y,z), E(z,w), E(w,x).")
	for i := 0; i < b.N; i++ {
		ap, err := core.Approximate(q, &deps.Set{}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !hypergraph.IsAcyclic(ap.Query.Atoms) {
			b.Fatal("approximation cyclic")
		}
	}
}

// BenchmarkT6_ConnectingOperator measures the §4 reduction machinery.
func BenchmarkT6_ConnectingOperator(b *testing.B) {
	set := gen.Example1TGD()
	q := gen.Example1Witness()
	qp := gen.Example1Query()
	for i := 0; i < b.N; i++ {
		dec, err := containment.Contains(connect.Query(q), connect.RightQuery(qp), connect.Set(set), containment.Options{})
		if err != nil || !dec.Holds {
			b.Fatalf("reduction lost containment: %v %v", dec, err)
		}
	}
}
