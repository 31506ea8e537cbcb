package semacyclic_test

import (
	"fmt"

	semacyclic "semacyclic"
)

// The paper's Example 1: a cyclic core with an acyclic equivalent
// under the compulsive-collector constraint.
func ExampleDecide() {
	q := semacyclic.MustParseQuery(
		"q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
	sigma := semacyclic.MustParseDependencies(
		"Interest(x,z), Class(y,z) -> Owns(x,y).")

	res, err := semacyclic.Decide(q, sigma, semacyclic.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict)
	fmt.Println(res.Witness)
	// Output:
	// yes
	// q(x,y) :- Interest(x,z), Class(y,z)
}

func ExampleIsAcyclic() {
	triangle := semacyclic.MustParseQuery("q :- E(x,y), E(y,z), E(z,x).")
	path := semacyclic.MustParseQuery("q :- E(x,y), E(y,z).")
	fmt.Println(semacyclic.IsAcyclic(triangle), semacyclic.IsAcyclic(path))
	// Output: false true
}

func ExampleChaseQuery() {
	// Lemma 1: chase the frozen query; the tgd materializes Owns.
	q := semacyclic.MustParseQuery("q(x,y) :- Interest(x,z), Class(y,z).")
	sigma := semacyclic.MustParseDependencies(
		"Interest(x,z), Class(y,z) -> Owns(x,y).")
	res, _, err := semacyclic.ChaseQuery(q, sigma, semacyclic.ChaseOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Instance.Len(), res.Complete)
	// Output: 3 true
}

func ExampleRewriteUCQ() {
	sigma := semacyclic.MustParseDependencies("A(x) -> B(x).")
	q := semacyclic.MustParseQuery("q(x) :- B(x).")
	rw, err := semacyclic.RewriteUCQ(q, sigma, semacyclic.RewriteOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rw.UCQ)
	// Output:
	// q(x) :- B(x)
	// q(x) :- A(x)
}

// A disjunct's existential variables are named v0, v1, … in order of
// first occurrence, so a rewriting prints the same on every call and
// parses back; the first disjunct keeps the query's own names.
func ExampleRewriteUCQ_names() {
	sigma := semacyclic.MustParseDependencies("JournalPaper(p) -> Publication(p,v).\nAuthorOf(a,p), Publication(p,v) -> AppearsAt(a,v).")
	q := semacyclic.MustParseQuery("q(a,p) :- AuthorOf(a,p), Publication(p,v), AppearsAt(a,v).")
	rw, err := semacyclic.RewriteUCQ(q, sigma, semacyclic.RewriteOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rw.UCQ)
	// Output:
	// q(a,p) :- AuthorOf(a,p), Publication(p,v), AppearsAt(a,v)
	// q(a,p) :- AuthorOf(a,p), Publication(p,v0)
	// q(a,p) :- JournalPaper(p), AuthorOf(a,p)
}

func ExampleEvaluateAcyclic() {
	db, err := semacyclic.ParseDatabase("E(a,b). E(b,c). E(b,d).")
	if err != nil {
		panic(err)
	}
	q := semacyclic.MustParseQuery("q(x,z) :- E(x,y), E(y,z).")
	answers, err := semacyclic.EvaluateAcyclic(q, db)
	if err != nil {
		panic(err)
	}
	for _, t := range answers {
		fmt.Println(t[0].Name, t[1].Name)
	}
	// Output:
	// a c
	// a d
}

func ExampleApproximate() {
	// The triangle has no acyclic equivalent; §8.2 still yields a
	// maximally contained acyclic query for quick answers.
	tri := semacyclic.MustParseQuery("q :- E(x,y), E(y,z), E(z,x).")
	ap, err := semacyclic.Approximate(tri, &semacyclic.Dependencies{}, semacyclic.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(ap.Equivalent)
	fmt.Println(ap.Query)
	// Output:
	// false
	// q() :- E(x,x)
}

func ExampleClasses() {
	sigma := semacyclic.MustParseDependencies("R(x,y) -> S(y,z).")
	for _, c := range semacyclic.Classes(sigma) {
		fmt.Println(c)
	}
	// Output:
	// guarded
	// linear
	// inclusion
	// non-recursive
	// sticky
	// weakly-acyclic
	// weakly-guarded
	// weakly-sticky
}

func ExampleCore() {
	q := semacyclic.MustParseQuery("q(x) :- E(x,y), E(x,z).")
	fmt.Println(semacyclic.Core(q).Size())
	// Output: 1
}

func ExampleDecideUCQ() {
	// §8.1: the cyclic triangle disjunct is redundant (every triangle
	// has an edge), so the union is semantically acyclic.
	u, _ := semacyclic.ParseUCQ("q :- E(x,y), E(y,z), E(z,x).\nq :- E(x,y).")
	res, err := semacyclic.DecideUCQ(u, &semacyclic.Dependencies{}, semacyclic.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict)
	fmt.Println(res.Redundant)
	// Output:
	// yes
	// [true false]
}

// Theorem 25: for guarded Σ, a semantically acyclic query is evaluated
// in polynomial time via the existential 1-cover game — no witness is
// ever computed. The caller guarantees the premises (Σ guarded, q
// semantically acyclic under Σ, the database satisfies Σ).
func ExampleEvaluateGuardedGame() {
	// Σ = E(x,y) -> P(x) is linear, hence guarded; q is semantically
	// acyclic under it; the database satisfies it.
	q := semacyclic.MustParseQuery("q(x) :- E(x,y), P(x).")
	db, err := semacyclic.ParseDatabase("E(a,b). E(b,c). P(a). P(b).")
	if err != nil {
		panic(err)
	}
	answers, err := semacyclic.EvaluateGuardedGame(q, db)
	if err != nil {
		panic(err)
	}
	for _, t := range answers {
		fmt.Println(t[0].Name)
	}
	// Output:
	// a
	// b
}

// Section 7 (closing remark): under a pure egd set, evaluation chases
// the query once and then plays the 1-cover game per tuple.
func ExampleEvaluateEGDGame() {
	// The key makes E's second position a function of the first, so the
	// two-atom query collapses to a single atom — semantically acyclic.
	q := semacyclic.MustParseQuery("q(x,y) :- E(x,y), E(x,z).")
	sigma := semacyclic.MustParseDependencies("E(x,y), E(x,z) -> y = z.")
	db, err := semacyclic.ParseDatabase("E(a,b). E(c,d).")
	if err != nil {
		panic(err)
	}
	answers, err := semacyclic.EvaluateEGDGame(q, sigma, db)
	if err != nil {
		panic(err)
	}
	for _, t := range answers {
		fmt.Println(t[0].Name, t[1].Name)
	}
	// Output:
	// a b
	// c d
}

// Evaluate is the generic (NP-hard in general) backtracking evaluator —
// the always-sound fallback every fast path is checked against.
func ExampleEvaluate() {
	q := semacyclic.MustParseQuery("q(x,z) :- E(x,y), E(y,z).")
	db, err := semacyclic.ParseDatabase("E(a,b). E(b,c). E(b,d).")
	if err != nil {
		panic(err)
	}
	for _, t := range semacyclic.Evaluate(q, db) {
		fmt.Println(t[0].Name, t[1].Name)
	}
	// Unordered output:
	// a c
	// a d
}

// ApplyDelta mutates an instance atomically under set semantics: the
// whole batch is validated first, duplicates and no-ops collapse, and
// the epoch advances by exactly one however large the batch is —
// incremental evaluators holding reducer state catch up from the rows
// the batch appended to the instance's view instead of recomputing.
func ExampleInstance_ApplyDelta() {
	db, err := semacyclic.ParseDatabase("E(a,b). E(b,c). E(c,d).")
	if err != nil {
		panic(err)
	}
	before := db.Epoch()

	// E(a,b) is already present (no-op insert); deleting E(x,y) twice
	// in the batch collapses to one effective delete.
	ins, err := semacyclic.ParseAtoms("E(d,e). E(a,b).")
	if err != nil {
		panic(err)
	}
	del, err := semacyclic.ParseAtoms("E(b,c). E(b,c).")
	if err != nil {
		panic(err)
	}
	res, err := db.ApplyDelta(ins, del)
	if err != nil {
		panic(err)
	}
	fmt.Println("inserted:", res.Inserted, "deleted:", res.Deleted)
	fmt.Println("atoms:", db.Len(), "epoch advanced by:", res.Epoch-before)
	// Output:
	// inserted: 1 deleted: 1
	// atoms: 3 epoch advanced by: 1
}

// NewOverlay answers a what-if question — "what would q return if
// this delta were applied?" — without copying or mutating the base
// instance. The overlay shares the base's interned view for untouched
// relations, so its cost is proportional to the delta.
func ExampleInstance_NewOverlay() {
	db, err := semacyclic.ParseDatabase("E(a,b). E(b,c).")
	if err != nil {
		panic(err)
	}
	q := semacyclic.MustParseQuery("q(x,z) :- E(x,y), E(y,z).")
	plan, err := semacyclic.CompilePlan(q, &semacyclic.Dependencies{},
		semacyclic.Options{}, semacyclic.MethodYannakakis)
	if err != nil {
		panic(err)
	}

	ins, err := semacyclic.ParseAtoms("E(c,d).")
	if err != nil {
		panic(err)
	}
	ov, err := db.NewOverlay(ins, nil)
	if err != nil {
		panic(err)
	}
	what, _, err := plan.ExecuteOverlay(ov, semacyclic.EvalOptions{})
	if err != nil {
		panic(err)
	}
	base, _, err := plan.Execute(db, semacyclic.EvalOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("hypothetical answers:", len(what))
	fmt.Println("base answers:        ", len(base), " base atoms:", db.Len())
	// Output:
	// hypothetical answers: 2
	// base answers:         1  base atoms: 2
}

func ExampleExplain() {
	q := semacyclic.MustParseQuery(
		"q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
	sigma := semacyclic.MustParseDependencies(
		"Interest(x,z), Class(y,z) -> Owns(x,y).")
	res, _ := semacyclic.Decide(q, sigma, semacyclic.Options{})
	cert, err := semacyclic.Explain(q, sigma, res, semacyclic.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(cert.Witness)
	fmt.Println(cert.JoinTree.Verify() == nil)
	// Output:
	// q(x,y) :- Interest(x,z), Class(y,z)
	// true
}
