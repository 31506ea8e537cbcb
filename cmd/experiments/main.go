// Command experiments regenerates every experiment in DESIGN.md §4:
// for each example, figure and theorem-backed claim of "Semantic
// Acyclicity Under Constraints" (PODS 2016) it runs the corresponding
// workload and prints the measured table or series. Absolute numbers
// are machine-dependent; the shapes (who wins, what blows up, where the
// exponential lives) are what the paper predicts.
//
// Usage:
//
//	experiments            # run everything
//	experiments e1 t2 f2   # run selected experiments
//
// Performance is measured by the seeded benchmark in bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

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
	"semacyclic/internal/telemetry"
	"semacyclic/internal/yannakakis"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	all := []experiment{
		{"e1", "Example 1: reformulation and evaluation speedup", runE1},
		{"e2", "Example 2: chase clique blowup under a sticky/NR tgd", runE2},
		{"e3", "Example 3: exponential sticky UCQ rewriting", runE3},
		{"e4", "Example 4: a key destroys acyclicity", runE4},
		{"e5", "Example 5 / Figure 4: keys turn a tree into a grid", runE5},
		{"f1", "Figure 1: stickiness marking", runF1},
		{"f2", "Figure 2 / Theorem 7: PCP construction", runF2},
		{"f3", "Figure 3 / Lemma 9: compact witness bound", runF3},
		{"t1", "Theorems 11/14/18/20/23: SemAc cost per class", runT1},
		{"t2", "Proposition 24: fpt evaluation, linear in |D|", runT2},
		{"t3", "Theorem 25: guarded game evaluation", runT3},
		{"t4", "Propositions 17/19: rewriting height bounds", runT4},
		{"t5", "Section 8.2: acyclic approximations", runT5},
		{"t6", "Section 4: connecting operator", runT6},
	}
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s — %s ==\n", strings.ToUpper(e.id), e.title)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: unknown experiment id(s); known: e1..e5 f1..f3 t1..t6")
		os.Exit(1)
	}
}

func timeIt(f func()) time.Duration {
	sw := telemetry.StartTimer()
	f()
	return sw.Elapsed()
}

// runE1: decide Example 1, then compare evaluation of the original
// (generic join) against the acyclic witness (Yannakakis) as |D| grows.
func runE1() {
	q := gen.Example1Query()
	set := gen.Example1TGD()
	res, err := core.Decide(q, set, core.Options{})
	must(err)
	fmt.Printf("verdict=%s witness=%s (layer=%s)\n", res.Verdict, res.Witness, res.Layer)

	fmt.Printf("%-10s %-8s %-14s %-14s %-8s\n", "|D|", "answers", "generic", "yannakakis", "speedup")
	r := rand.New(rand.NewSource(1))
	for _, scale := range []int{20, 50, 100, 200, 400} {
		db := gen.Example1DB(r, scale, scale, 8)
		var nd, nf int
		td := timeIt(func() { nd = len(hom.Evaluate(q, db)) })
		tf := timeIt(func() {
			ans, err := yannakakis.Evaluate(res.Witness, db)
			must(err)
			nf = len(ans)
		})
		if nd != nf {
			fmt.Printf("MISMATCH: %d vs %d\n", nd, nf)
		}
		fmt.Printf("%-10d %-8d %-14s %-14s %.1fx\n", db.Len(), nd, td, tf, float64(td)/float64(tf+1))
	}
}

// runE2: chase size under P(x),P(y) → R(x,y) is quadratic and the
// result is cyclic.
func runE2() {
	set := gen.Example2Set()
	fmt.Printf("%-6s %-12s %-10s %-10s %-10s\n", "n", "chase atoms", "R atoms", "acyclic", "treewidth≤")
	for _, n := range []int{4, 8, 16, 32} {
		q := gen.Example2Query(n)
		res, _, err := chase.Query(q, set, chase.Options{})
		must(err)
		thawed := cq.ThawAtoms(res.Instance.AtomsUnordered())
		fmt.Printf("%-6d %-12d %-10d %-10v %-10d\n", n, res.Instance.Len(),
			len(res.Instance.ByPred("R")),
			hypergraph.IsAcyclic(thawed),
			hypergraph.TreewidthUpperBound(thawed))
	}
}

// runE3: the P_n-only disjunct of the rewriting has 2^n atoms.
func runE3() {
	fmt.Printf("%-6s %-12s %-16s %-12s\n", "n", "disjuncts", "max P_n atoms", "expected 2^n")
	for n := 1; n <= 4; n++ {
		set, q := gen.Example3Set(n)
		rw, err := rewrite.Rewrite(q, set, rewrite.Options{})
		must(err)
		best := 0
		pn := fmt.Sprintf("P%d", n)
		for _, d := range rw.UCQ.Disjuncts {
			only := true
			for _, a := range d.Atoms {
				if a.Pred != pn {
					only = false
					break
				}
			}
			if only && d.Size() > best {
				best = d.Size()
			}
		}
		fmt.Printf("%-6d %-12d %-16d %-12d\n", n, len(rw.UCQ.Disjuncts), best, 1<<n)
	}
}

// runE4: the Example 4 chain query is acyclic; its key chase is not.
func runE4() {
	q := gen.Example4Query()
	res, _, err := chase.Query(q, gen.Example4Key(), chase.Options{})
	must(err)
	fmt.Printf("query acyclic: %v\n", hypergraph.IsAcyclic(q.Atoms))
	fmt.Printf("chased acyclic: %v (atoms %d → %d)\n",
		hypergraph.IsAcyclic(cq.ThawAtoms(res.Instance.AtomsUnordered())),
		q.Size(), res.Instance.Len())
}

// runE5: the tree query chases to an instance containing the full grid.
func runE5() {
	fmt.Printf("%-4s %-12s %-12s %-12s %-11s %-10s\n", "n", "query atoms", "chase atoms", "grid found", "treewidth≤", "chase time")
	for n := 1; n <= 4; n++ {
		q, keys := gen.Example5Grid(n)
		var res *chase.Result
		t := timeIt(func() {
			var err error
			res, _, err = chase.Query(q, keys, chase.Options{})
			must(err)
		})
		found := hom.EvaluateBool(gen.GridCQ(n), res.Instance)
		tw := hypergraph.TreewidthUpperBound(cq.ThawAtoms(res.Instance.AtomsUnordered()))
		fmt.Printf("%-4d %-12d %-12d %-12v %-11d %-10s\n", n, q.Size(), res.Instance.Len(), found, tw, t)
	}
}

// runF1: the marking procedure on Figure 1's two sets.
func runF1() {
	sets := []struct {
		name string
		src  string
	}{
		{"propagating (sticky)", "T(x,y,z) -> S(y,w).\nR(x,y), P(y,z) -> T(x,y,w)."},
		{"dropping (not sticky)", "T(x,y,z) -> S(x,w).\nR(x,y), P(y,z) -> T(x,y,w)."},
	}
	for _, s := range sets {
		set := deps.MustParse(s.src)
		m := deps.ComputeMarking(set)
		marked := 0
		for _, mm := range m.Marked {
			marked += len(mm)
		}
		fmt.Printf("%-24s sticky=%v markedVars=%d\n", s.name, set.IsSticky(), marked)
	}
}

// runF2: build (q,Σ) from PCP instances; solvable ones admit the
// path-query witness.
func runF2() {
	cases := []struct {
		name string
		inst pcp.Instance
		seq  []int
	}{
		{"identity ab/ab", pcp.Instance{W1: []string{"ab"}, W2: []string{"ab"}}, []int{1}},
		{"two-step", pcp.Instance{W1: []string{"a", "ba"}, W2: []string{"ab", "a"}}, []int{1, 2}},
		{"unsolvable", pcp.Instance{W1: []string{"aa"}, W2: []string{"aaaa"}}, []int{1}},
	}
	fmt.Printf("%-16s %-10s %-10s %-14s\n", "instance", "solves?", "q≡Σq'?", "time")
	for _, c := range cases {
		inst := c.inst.Normalize()
		q, set, err := pcp.Build(inst)
		must(err)
		w, err := inst.SolutionQuery(c.seq)
		must(err)
		var dec containment.Decision
		t := timeIt(func() {
			var err error
			dec, err = containment.Equivalent(q, w, set, containment.Options{})
			must(err)
		})
		fmt.Printf("%-16s %-10v %-10v %-14s\n", c.name, inst.CheckSolution(c.seq), dec.Holds, t)
	}
}

// runF3: Lemma 9's 2·|q| bound on random acyclic instances.
func runF3() {
	r := rand.New(rand.NewSource(3))
	worst := 0.0
	trials := 500
	for i := 0; i < trials; i++ {
		q := gen.RandomAcyclicCQ(r, 3+r.Intn(15), []string{"E", "F"})
		f, ok := hypergraph.GYO(q.Atoms)
		if !ok {
			panic("generator broke")
		}
		marked := map[string]bool{}
		for _, a := range q.Atoms {
			if r.Intn(3) == 0 {
				marked[a.Key()] = true
			}
		}
		if len(marked) == 0 {
			marked[q.Atoms[0].Key()] = true
		}
		j, err := hypergraph.Compact(f, marked)
		must(err)
		ratio := float64(len(j)) / float64(len(marked))
		if ratio > worst {
			worst = ratio
		}
	}
	fmt.Printf("trials=%d  worst |J|/|marked| = %.2f  (Lemma 9 bound: 2.00)\n", trials, worst)
}

// runT1: SemAc wall-clock per class as |q| grows (fixed schema).
func runT1() {
	classes := []struct {
		name string
		set  *deps.Set
	}{
		{"guarded", deps.MustParse("Interest(x,z), Class(y,z) -> Owns2(x,y,z).\nOwns2(x,y,z) -> Owns(x,y).")},
		{"inclusion", deps.MustParse("Owns(x,y) -> Interest(x,z).")},
		{"non-recursive", deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")},
		{"keys(K2)", deps.MustParse("Owns(x,y), Owns(x,z) -> y = z.")},
	}
	fmt.Printf("%-14s %-6s %-10s %-12s %-10s\n", "class", "|q|", "verdict", "time", "candidates")
	for _, c := range classes {
		for _, k := range []int{3, 4, 5} {
			q := chainQuery(k)
			var res *core.Result
			t := timeIt(func() {
				var err error
				res, err = core.Decide(q, c.set, core.Options{SearchBudget: 3000, SkipCompleteSearch: true})
				must(err)
			})
			fmt.Printf("%-14s %-6d %-10s %-12s %-10d\n", c.name, q.Size(), res.Verdict, t, res.Candidates)
		}
	}
}

// chainQuery builds Interest/Class/Owns chains of growing size ending
// in the Example 1 triangle.
func chainQuery(k int) *cq.CQ {
	parts := []string{"Interest(x,z)", "Class(y,z)", "Owns(x,y)"}
	for i := 3; i < k; i++ {
		parts = append(parts, fmt.Sprintf("Owns(x,y%d)", i))
	}
	return cq.MustParse("q(x,y) :- " + strings.Join(parts, ", ") + ".")
}

// runT2: total time of reformulate-once-then-evaluate is linear in
// |D|. The Boolean query isolates the O(|D|) claim — with free
// variables the answer set itself grows superlinearly and dominates.
func runT2() {
	q := gen.Example1Query()
	set := gen.Example1TGD()
	p, err := core.CompilePlan(q, set, core.Options{}, core.MethodYannakakis)
	must(err)
	r := rand.New(rand.NewSource(4))
	fmt.Printf("%-10s %-14s %-16s\n", "|D|", "bool eval", "time per atom")
	for _, scale := range []int{100, 200, 400, 800, 1600} {
		db := gen.Example1DB(r, scale, scale, 10)
		t := timeIt(func() {
			_, _, err := p.Execute(db, core.EvalOptions{})
			must(err)
		})
		fmt.Printf("%-10d %-14s %-16s\n", db.Len(), t, time.Duration(int64(t)/int64(db.Len()+1)))
	}
}

// runT3: the guarded game evaluates without reformulation; compare
// against the Prop. 24 pipeline and direct evaluation.
func runT3() {
	q := cq.MustParse("q(x) :- E(x,y), P(x).")
	r := rand.New(rand.NewSource(5))
	fmt.Printf("%-10s %-12s %-12s %-12s\n", "|D|", "game", "direct", "agree")
	for _, scale := range []int{50, 100, 200, 400} {
		db := gen.RandomGraphDB(r, scale, scale/3)
		var ng, nd int
		tg := timeIt(func() {
			ans, err := game.Evaluate(q.Atoms, q.Free, db, game.Options{})
			must(err)
			ng = len(ans)
		})
		td := timeIt(func() { nd = len(hom.Evaluate(q, db)) })
		fmt.Printf("%-10d %-12s %-12s %-12v\n", db.Len(), tg, td, ng == nd)
	}
}

// runT4: measured rewriting heights against f_C(q,Σ).
func runT4() {
	cases := []struct {
		name string
		set  *deps.Set
		q    *cq.CQ
	}{
		{"NR chain", deps.MustParse("A(x) -> B(x,z).\nB(x,y) -> C(y)."), cq.MustParse("q :- C(u).")},
		{"sticky", deps.MustParse("T(x,y,z) -> S(y,w).\nR(x,y), P(y,z) -> T(x,y,w)."), cq.MustParse("q :- S(u,v).")},
	}
	fmt.Printf("%-10s %-12s %-14s %-10s\n", "set", "disjuncts", "max height", "f_C bound")
	for _, c := range cases {
		rw, err := rewrite.Rewrite(c.q, c.set, rewrite.Options{})
		must(err)
		fmt.Printf("%-10s %-12d %-14d %-10d\n", c.name, len(rw.UCQ.Disjuncts),
			rw.UCQ.Height(), rewrite.HeightBound(c.q, c.set))
	}
}

// runT5: approximations of cyclic queries.
func runT5() {
	queries := []string{
		"q :- E(x,y), E(y,z), E(z,x).",
		"q :- E(a,b), E(b,c), E(c,d), E(d,a).",
		"q(x) :- E(x,y), E(y,z), E(z,x), P(x).",
	}
	fmt.Printf("%-44s %-30s %-8s\n", "query", "approximation", "time")
	for _, src := range queries {
		q := cq.MustParse(src)
		var ap *core.Approximation
		t := timeIt(func() {
			var err error
			ap, err = core.Approximate(q, &deps.Set{}, core.Options{})
			must(err)
		})
		fmt.Printf("%-44s %-30s %-8s\n", src, ap.Query, t)
	}
}

// runT6: the connecting operator preserves classes and containment.
func runT6() {
	set := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	q := cq.MustParse("q :- Interest(x,z), Class(y,z).")
	qp := cq.MustParse("q :- Interest(x,z), Class(y,z), Owns(x,y).")

	base, err := containment.Contains(q, qp, set, containment.Options{})
	must(err)
	red, err := containment.Contains(connect.Query(q), connect.RightQuery(qp), connect.Set(set), containment.Options{})
	must(err)
	cs := connect.Set(set)
	var names []string
	for _, c := range cs.Classes() {
		names = append(names, string(c))
	}
	sort.Strings(names)
	fmt.Printf("base containment=%v  reduced containment=%v  c(Σ) classes=%v\n", base.Holds, red.Holds, names)
	fmt.Printf("c(q) acyclic=%v connected=%v;  c(q') cyclic=%v connected=%v\n",
		hypergraph.IsAcyclic(connect.Query(q).Atoms), connect.Query(q).IsConnected(),
		!hypergraph.IsAcyclic(connect.RightQuery(qp).Atoms), connect.RightQuery(qp).IsConnected())
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
