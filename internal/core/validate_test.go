package core

import (
	"math/rand"
	"slices"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// TestCandidateScansMatchValidate: layers 3 and 4 check their
// candidates by scanning for the conditions they can fail instead of
// calling CQ.Validate, which builds a schema and two term maps per
// call. The candidates here are built as each layer builds them, over
// random workloads of every class, and each scan must agree with
// Validate() == nil.
func TestCandidateScansMatchValidate(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	var agreed, valid [2]int
	for _, class := range gen.WorkloadClasses {
		for trial := 0; trial < 30; trial++ {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 2+r.Intn(3), 1, 3)
			// Layer 4: atoms over the joint schema with arguments from
			// the pool of free variables, fresh variables and the
			// constants of q and Σ.
			sch, err := q.Schema().Union(set.Schema())
			if err != nil {
				t.Fatal(err)
			}
			preds := sch.Predicates()
			e := &searchEngine{free: q.Free, consts: availableConstants(q, set)}
			pool := e.argumentPool(nil, freshNames(q.Free, 4))
			for c := 0; c < 20; c++ {
				atoms := make([]instance.Atom, 1+r.Intn(3))
				for i := range atoms {
					p := preds[r.Intn(len(preds))]
					args := make([]term.Term, p.Arity)
					for j := range args {
						args[j] = pool[r.Intn(len(pool))]
					}
					atoms[i] = instance.Atom{Pred: p.Name, Args: args}
				}
				cand := cq.CQ{Name: q.Name, Free: e.free, Atoms: atoms}
				want := cand.Validate() == nil
				if got := coversFree(e.free, atoms, -1); got != want {
					t.Fatalf("layer 4 candidate %s: scan says %v, Validate %v", &cand, got, want)
				}
				agreed[0]++
				if want {
					valid[0]++
				}
			}
			// Layer 3: selections of the thawed chase, including the
			// empty one, against the thawed free tuple.
			res, frozen, err := chase.Query(q, set, chase.Options{MaxDepth: q.Size() + len(set.TGDs) + 2, MaxSteps: 2000})
			if err != nil {
				continue
			}
			atoms := cq.ThawAtoms(res.Instance.Atoms())
			free := make([]term.Term, len(frozen))
			once := true
			for i, f := range frozen {
				if cq.IsFrozenConst(f) {
					f = cq.Thaw(f)
				}
				free[i] = f
				once = once && f.IsVar() && !slices.Contains(free[:i], f)
			}
			for c := 0; c < 20; c++ {
				var sel []instance.Atom
				for _, a := range atoms {
					if r.Intn(3) == 0 {
						sel = append(sel, a)
					}
				}
				view := cq.CQ{Name: q.Name, Free: free, Atoms: sel}
				want := view.Validate() == nil
				if got := once && selectionValid(free, sel); got != want {
					t.Fatalf("layer 3 selection %s: scan says %v, Validate %v", &view, got, want)
				}
				agreed[1]++
				if want {
					valid[1]++
				}
			}
		}
	}
	for layer, n := range agreed {
		if valid[layer] == 0 || valid[layer] == n {
			t.Errorf("layer %d: %d of %d candidates valid; the check needs both outcomes", 4-layer, valid[layer], n)
		}
	}
}
