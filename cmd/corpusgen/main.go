// Command corpusgen regenerates the eval tier of the torture corpus
// (testdata/corpus/eval): for each built-in workload it runs the
// differential cross-check, verifies that every applicable evaluation
// method agrees, and freezes the triple with the engine-computed
// verdict and canonical answers as a JSON case. Run it from the repo
// root after an intentional semantics change:
//
//	go run ./cmd/corpusgen -out testdata/corpus/eval
//
// Workloads are seeded, so regeneration is deterministic. Cases whose
// methods disagree are never written — a disagreement here is a bug to
// fix, not an expectation to freeze.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"semacyclic/internal/core"
	"semacyclic/internal/corpus"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
)

type workload struct {
	name string
	note string
	make func() (*cq.CQ, *deps.Set, *instance.Instance, error)
}

// random builds a seeded RandomWorkload in the given class, chased
// into a Σ-satisfying database when possible.
func random(class string, seed int64, nDeps, qAtoms, dbAtoms, domain int) func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
	return func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
		r := rand.New(rand.NewSource(seed))
		q, set, db := gen.RandomWorkload(r, class, nDeps, qAtoms, dbAtoms, domain)
		sat, err := corpus.SatisfyingDB(db, set, 5000)
		if err != nil {
			return nil, nil, nil, err
		}
		return q, set, sat, nil
	}
}

func workloads() []workload {
	return []workload{
		{
			name: "acyclic-no-deps",
			note: "already-acyclic query, empty Sigma: settles at the core layer",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				q := cq.MustParse("q(x) :- E(x,y), E(y,z)")
				db, err := instance.Parse("E(a,b). E(b,c). E(c,a). E(b,d).")
				return q, &deps.Set{}, db, err
			},
		},
		{
			name: "cycle-no-deps",
			note: "3-cycle, empty Sigma: semantically cyclic, generic arm only",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				db, err := instance.Parse("E(a,b). E(b,c). E(c,a). E(a,a).")
				return gen.CycleCQ(3), &deps.Set{}, db, err
			},
		},
		{
			name: "example1-interest",
			note: "paper Example 1: cycle broken by an inclusion dependency",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				r := rand.New(rand.NewSource(1))
				return gen.Example1Query(), gen.Example1TGD(), gen.Example1DB(r, 5, 7, 3), nil
			},
		},
		{
			name: "example4-flights",
			note: "paper Example 4: key constraint makes the query acyclic",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				db, err := instance.Parse(
					"Flight(f1,vie,lhr). Flight(f2,lhr,vie). Flight(f3,vie,cdg).")
				return gen.Example4Query(), gen.Example4Key(), db, err
			},
		},
		{name: "inclusion-random", note: "seeded inclusion-dependency workload, chased database",
			make: random("inclusion", 101, 3, 3, 8, 4)},
		{name: "guarded-random", note: "seeded guarded workload, chased database (depth-bounded)",
			make: random("guarded", 202, 2, 3, 6, 4)},
		{name: "sticky-random", note: "seeded sticky workload, chased database",
			make: random("sticky", 303, 3, 3, 8, 4)},
		{name: "nonrecursive-random", note: "seeded non-recursive (stratified) workload",
			make: random("nonrecursive", 404, 3, 3, 8, 4)},
		{name: "keys-random", note: "seeded key-constraint workload, key-consistent database",
			make: random("keys", 505, 2, 3, 8, 4)},
		{name: "plain-random", note: "seeded dependency-free workload",
			make: random("none", 606, 1, 4, 10, 4)},
		{
			name: "free-vars-keys",
			note: "binary answer query under a key, egd-game applicable",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				q := cq.MustParse("q(x,z) :- E0(x,y), E0(y,z)")
				set := deps.MustParse("E0(x,y), E0(x,z) -> y = z.")
				db, err := instance.Parse("E0(a,b). E0(b,c). E0(c,a).")
				return q, set, db, err
			},
		},
		{
			name: "egd-pinned-head",
			note: "key equates the head variable with a query constant; fuzz-found egd-game regression",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				q := cq.MustParse("q(r0) :- E0('c0','c0'), E0('c0',r0)")
				set := deps.MustParse("E0(x,y), E0(x,z) -> y = z.")
				db, err := instance.Parse("E0(c0,c0). E0(c1,c0).")
				return q, set, db, err
			},
		},
		{
			name: "constant-pinned",
			note: "query with a pinned constant, empty Sigma",
			make: func() (*cq.CQ, *deps.Set, *instance.Instance, error) {
				q := cq.MustParse("q(x) :- E(x,'b'), E('b',x)")
				db, err := instance.Parse("E(a,b). E(b,a). E(b,c). E(c,b).")
				return q, &deps.Set{}, db, err
			},
		},
	}
}

func main() {
	out := flag.String("out", filepath.Join("testdata", "corpus", "eval"), "output directory")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, w := range workloads() {
		q, set, db, err := w.make()
		if err != nil {
			return fmt.Errorf("%s: building workload: %w", w.name, err)
		}
		rep, err := core.CrossCheck(q, set, db, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: methods disagree, refusing to freeze: %w", w.name, err)
		}
		if err := core.CheckLayerMonotonicity(q, set, core.Options{}); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		body, err := gen.EmitEvalCase(q, set, db, rep.Verdict.String(), rep.Answers, w.note)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		path := filepath.Join(out, w.name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-22s verdict=%-8s answers=%-3d methods=%d\n",
			w.name, rep.Verdict, len(rep.Answers), len(rep.Methods))
	}
	return nil
}
