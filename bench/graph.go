package main

import (
	"fmt"
	"math/rand"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// regularGraph generates an E/P graph of about the given number of
// atoms: every node has exactly two E-successors, drawn at random, and
// a third of the nodes carry P. Fixing the out-degree fixes the number
// of join paths of every length, so the work of a query depends on the
// size, not on the seed; the seed only picks which graph.
func regularGraph(r *rand.Rand, atoms int) (*instance.Instance, error) {
	nodes := atoms * 3 / 7 // 2 E-atoms per node, P on a third of them
	node := func(i int) term.Term { return term.Const(fmt.Sprintf("c%d", i)) }
	db := instance.New()
	for i := 0; i < nodes; i++ {
		a := r.Intn(nodes)
		b := r.Intn(nodes - 1)
		if b >= a {
			b++
		}
		for _, j := range []int{a, b} {
			if err := db.Add(instance.NewAtom("E", node(i), node(j))); err != nil {
				return nil, fmt.Errorf("graph: %w", err)
			}
		}
	}
	for _, i := range r.Perm(nodes)[:nodes/3] {
		if err := db.Add(instance.NewAtom("P", node(i))); err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
	}
	return db, nil
}

// withAnchor replaces {anchor} in a query by the first node of db that
// starts an E-E-P path, so that the anchored queries have answers on
// every seed.
func withAnchor(query string, db *instance.Instance) string {
	anchor := db.ByPred("E")[0].Args[0]
search:
	for _, a := range db.ByPred("E") {
		for _, b := range db.ByPos("E", 0, a.Args[1]) {
			if db.Has(instance.NewAtom("P", b.Args[1])) {
				anchor = a.Args[0]
				break search
			}
		}
	}
	return strings.Replace(query, "{anchor}", "'"+anchor.Name+"'", 1)
}
