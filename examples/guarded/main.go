// Guarded: linear/guarded tgds with a genuinely infinite chase — the
// class where the paper's 2EXPTIME results live (Theorem 11). Shows:
//
//   - the depth-budgeted guarded chase (the library's substitute for
//     the alternating-automata decision procedure, see DESIGN.md §2),
//
//   - containment verdicts carrying an explicit Definitive flag when a
//     budget truncates the chase,
//
//   - a SemAc decision under a guarded set and Theorem 25's game-based
//     evaluation of the result.
//
//     go run ./examples/guarded
package main

import (
	"fmt"
	"log"

	semacyclic "semacyclic"
)

func main() {
	// Everyone has a parent, and parents are people: the chase of any
	// Person-fact is an infinite ancestor chain.
	sigma := semacyclic.MustParseDependencies(`
Person(x) -> Parent(x, y).
Parent(x, y) -> Person(y).
`)
	fmt.Println("Σ:")
	fmt.Println(sigma)
	fmt.Println("classes:", semacyclic.Classes(sigma))

	// Watch the chase grow under increasing depth budgets.
	q := semacyclic.MustParseQuery("q(x) :- Person(x).")
	fmt.Println("\nbounded chase of Person(x):")
	for _, depth := range []int{1, 3, 6} {
		res, _, err := semacyclic.ChaseQuery(q, sigma, semacyclic.ChaseOptions{MaxDepth: depth})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  depth %d: %d atoms, complete=%v\n", depth, res.Instance.Len(), res.Complete)
	}

	// Containment against the infinite chase: positive answers are
	// definitive; negatives under truncation are flagged.
	grandparent := semacyclic.MustParseQuery("q(x) :- Parent(x,y), Parent(y,z).")
	dec, err := semacyclic.Contains(q, grandparent, sigma, semacyclic.ContainmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPerson ⊆Σ two-Parent-steps: holds=%v definitive=%v\n", dec.Holds, dec.Definitive)

	missing := semacyclic.MustParseQuery("q(x) :- Immortal(x).")
	dec, err = semacyclic.Contains(q, missing, sigma, semacyclic.ContainmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Person ⊆Σ Immortal:        holds=%v definitive=%v  (truncated chase: honestly non-definitive)\n",
		dec.Holds, dec.Definitive)

	// SemAc under the guarded set: the query below is already acyclic,
	// so Decide certifies it immediately (layer "core"); a cyclic query
	// with no reformulation under this Σ honestly reports unknown
	// rather than guessing.
	q2 := semacyclic.MustParseQuery("q(x) :- Person(x), Parent(x,y), Person(y).")
	res, err := semacyclic.Decide(q2, sigma, semacyclic.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDecide(%s):\n  verdict=%s witness=%s\n", q2, res.Verdict, res.Witness)

	cyc := semacyclic.MustParseQuery("q :- Parent(x,y), Parent(y,z), Parent(z,x).")
	resC, err := semacyclic.Decide(cyc, sigma, semacyclic.Options{SearchBudget: 300, SkipCompleteSearch: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Decide(%s):\n  verdict=%s definitive=%v\n", cyc, resC.Verdict, resC.Definitive)

	// Evaluate on a Σ-satisfying database three ways; Theorem 25 says
	// the 1-cover game agrees without any reformulation.
	db, err := semacyclic.ParseDatabase(`
Person(ada). Parent(ada, alan). Person(alan). Parent(alan, kurt). Person(kurt).
Parent(kurt, kurt).
`)
	if err != nil {
		log.Fatal(err)
	}
	if !semacyclic.Satisfies(db, sigma) {
		log.Fatal("database violates Σ")
	}
	direct := semacyclic.Evaluate(q2, db)
	viaWitness, err := semacyclic.EvaluateAcyclic(res.Witness, db)
	if err != nil {
		log.Fatal(err)
	}
	viaGame, err := semacyclic.EvaluateGuardedGame(q2, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanswers: direct=%d, witness=%d, game=%d (all agree: %v)\n",
		len(direct), len(viaWitness), len(viaGame),
		len(direct) == len(viaWitness) && len(direct) == len(viaGame))
}
