// What-if analysis with overlays, then committing the chosen delta:
// evaluate a plan over hypothetical variants of a database without
// copying it, pick a variant, apply it atomically with ApplyDelta and
// let the retained reducer state catch up from the rows the batch
// appended instead of re-evaluating from scratch.
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"

	semacyclic "semacyclic"
)

func main() {
	// A small reachability query over a freight network: hubs x that
	// reach a customs-cleared port z in two hops.
	q, err := semacyclic.ParseQuery(
		"q(x,z) :- Route(x,y), Route(y,z), Cleared(z).")
	if err != nil {
		log.Fatal(err)
	}
	db, err := semacyclic.ParseDatabase(`
		Route(berlin, prague). Route(prague, vienna).
		Route(berlin, hamburg). Route(hamburg, rotterdam).
		Cleared(vienna).`)
	if err != nil {
		log.Fatal(err)
	}

	plan, err := semacyclic.CompilePlan(q, &semacyclic.Dependencies{},
		semacyclic.Options{}, semacyclic.MethodYannakakis)
	if err != nil {
		log.Fatal(err)
	}

	base, _, err := plan.Execute(db, semacyclic.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d answer(s) over %d atoms\n", len(base), db.Len())

	// What-if round: candidate network changes, each evaluated on a
	// copy-on-write overlay. The base instance is never touched — all
	// three candidates layer over the same shared snapshot.
	candidates := []struct{ name, insert, delete string }{
		{"clear rotterdam", "Cleared(rotterdam).", ""},
		{"reroute via warsaw", "Route(prague, warsaw). Cleared(warsaw).", "Route(prague, vienna)."},
		{"drop hamburg leg", "", "Route(berlin, hamburg)."},
	}
	best, bestAnswers := -1, len(base)
	for i, c := range candidates {
		ins, err := semacyclic.ParseAtoms(c.insert)
		if err != nil {
			log.Fatal(err)
		}
		del, err := semacyclic.ParseAtoms(c.delete)
		if err != nil {
			log.Fatal(err)
		}
		ov, err := db.NewOverlay(ins, del)
		if err != nil {
			log.Fatal(err)
		}
		answers, _, err := plan.ExecuteOverlay(ov, semacyclic.EvalOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("what-if %-22s → %d answer(s)\n", c.name, len(answers))
		if len(answers) > bestAnswers {
			best, bestAnswers = i, len(answers)
		}
	}
	if best < 0 {
		fmt.Println("no candidate improves reachability; base unchanged")
		return
	}

	// Commit the winning candidate for real. ApplyDelta validates the
	// whole batch first (arity clashes reject it atomically), advances
	// the epoch by one and repairs the instance's view in place.
	chosen := candidates[best]
	ins, _ := semacyclic.ParseAtoms(chosen.insert)
	del, _ := semacyclic.ParseAtoms(chosen.delete)
	res, err := db.ApplyDelta(ins, del)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %q: +%d −%d atoms, epoch %d\n",
		chosen.name, res.Inserted, res.Deleted, res.Epoch)

	// Incremental re-evaluation: the first run seeds reducer state, the
	// second repairs it from the rows the batch appended to the view.
	// Answers are identical to a from-scratch Execute — only the work
	// differs.
	answers, _, state, err := plan.ExecuteIncremental(db, nil, semacyclic.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after commit: %d answer(s), reducer state at epoch %d\n",
		len(answers), state.Epoch)

	more, _ := semacyclic.ParseAtoms("Route(vienna, budapest). Cleared(budapest).")
	grow, err := db.ApplyDelta(more, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grew network: +%d atoms, epoch %d\n", grow.Inserted, grow.Epoch)
	answers, _, state, err = plan.ExecuteIncremental(db, state, semacyclic.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after growth: %d answer(s), reducer state at epoch %d\n",
		len(answers), state.Epoch)
}
