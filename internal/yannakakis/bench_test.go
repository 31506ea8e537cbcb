package yannakakis

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func benchGraph(size, domain int) *instance.Instance {
	r := rand.New(rand.NewSource(1))
	db := instance.New()
	for i := 0; i < size; i++ {
		db.Add(instance.NewAtom("E",
			term.Const(fmt.Sprintf("c%d", r.Intn(domain))),
			term.Const(fmt.Sprintf("c%d", r.Intn(domain)))))
	}
	return db
}

// BenchmarkEvaluateLinearInDB demonstrates the linear-time claim: the
// same Boolean path query across doubling databases.
func BenchmarkEvaluateLinearInDB(b *testing.B) {
	q := gen.PathCQ(4)
	for _, size := range []int{1000, 2000, 4000, 8000} {
		db := benchGraph(size, size/4)
		b.Run(fmt.Sprintf("atoms=%d", db.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateWithForest measures the amortization of compiling
// the query and its join forest once and executing per database.
func BenchmarkEvaluateWithForest(b *testing.B) {
	q := cq.MustParse("q(x,w) :- E(x,y), E(y,z), E(z,w).")
	db := benchGraph(3000, 500)
	b.Run("fresh-gyo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Evaluate(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	forest, ok := hypergraph.GYO(q.Atoms)
	if !ok {
		b.Fatal("query cyclic")
	}
	c, err := Compile(q, forest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reused-forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(db, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
