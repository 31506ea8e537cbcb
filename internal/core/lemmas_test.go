package core

import (
	"math/rand"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/gen"
	"semacyclic/internal/term"
)

// TestLemma26 replays Lemma 26 of the paper: for body-connected tgds,
// a Boolean q and a connected Boolean q', q ⊆Σ q' implies that some
// maximally connected subquery of q is already Σ-contained in q'.
func TestLemma26(t *testing.T) {
	sigma := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	for _, tg := range sigma.TGDs {
		if !tg.IsBodyConnected() {
			t.Fatal("premise: Σ must be body-connected")
		}
	}
	// q: two disconnected components, the second carrying the witness.
	q := cq.MustParse("q :- P(u), Interest(x,z), Class(y,z).")
	qp := cq.MustParse("q :- Owns(a,b).")
	if !qp.IsConnected() {
		t.Fatal("premise: q' must be connected")
	}
	whole, err := containment.Contains(q, qp, sigma, containment.Options{})
	if err != nil || !whole.Holds {
		t.Fatalf("premise: q ⊆Σ q' should hold: %+v %v", whole, err)
	}
	found := false
	for _, comp := range q.ConnectedComponents() {
		dec, err := containment.Contains(comp, qp, sigma, containment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Holds {
			found = true
		}
	}
	if !found {
		t.Error("Lemma 26 violated: no maximally connected subquery is contained")
	}
}

// TestLemma26Property fuzzes the lemma over random NR sets (their tgds
// here are body-connected by construction when single-bodied; filter).
func TestLemma26Property(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 200 && checked < 40; trial++ {
		sigma := gen.RandomNonRecursive(r, 1+r.Intn(3))
		bodyConnected := true
		for _, tg := range sigma.TGDs {
			if !tg.IsBodyConnected() {
				bodyConnected = false
			}
		}
		if !bodyConnected {
			continue
		}
		preds := predsOfSet(sigma)
		// Two-component q; connected q'.
		a := gen.RandomCQ(r, 1+r.Intn(2), 2, preds)
		bq := gen.RandomCQ(r, 1+r.Intn(2), 2, preds)
		b, _ := bq.RenameApart(a)
		q := cq.Conjoin(a, b)
		qp := gen.RandomAcyclicCQ(r, 1+r.Intn(2), preds)
		if !qp.IsConnected() {
			continue
		}
		whole, err := containment.Contains(q, qp, sigma, containment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !whole.Holds {
			continue
		}
		checked++
		found := false
		for _, comp := range q.ConnectedComponents() {
			dec, err := containment.Contains(comp, qp, sigma, containment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Holds {
				found = true
			}
		}
		if !found {
			t.Fatalf("Lemma 26 violated:\nq=%s\nq'=%s\nΣ=%s", q, qp, sigma)
		}
	}
	if checked == 0 {
		t.Skip("fuzz produced no positive containments")
	}
}

func predsOfSet(set *deps.Set) []string {
	var out []string
	for _, p := range set.Schema().Predicates() {
		if p.Arity == 2 {
			out = append(out, p.Name)
		}
	}
	if len(out) == 0 {
		out = []string{"E"}
	}
	return out
}

// TestLemma32 replays Lemma 32: for guarded Σ and databases D ⊨ Σ, the
// existential 1-cover game on (q, x̄) and on (chase(q,Σ), x̄) agree.
func TestLemma32(t *testing.T) {
	sigma := deps.MustParse("E(x,y) -> P(x).\nP(x) -> Q(x,w).")
	if !sigma.IsGuarded() {
		t.Fatal("premise: Σ must be guarded")
	}
	q := cq.MustParse("q(x) :- E(x,y), P(x), Q(x,v).")
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 30; trial++ {
		// Random database closed under Σ.
		db := gen.RandomGraphDB(r, 10+r.Intn(20), 5)
		closed, err := chase.Run(db, sigma, chase.Options{MaxSteps: 5000})
		if err != nil || !closed.Complete {
			t.Fatalf("closing chase failed: %v", err)
		}
		D := closed.Instance

		// Chase the query.
		chq, frozen, err := chase.Query(q, sigma, chase.Options{MaxSteps: 5000})
		if err != nil || !chq.Complete {
			t.Fatalf("query chase failed: %v", err)
		}

		// Compare the two game relations on every candidate tuple drawn
		// from D's terms.
		for _, cand := range D.Terms() {
			tuple := []term.Term{cand}
			onQ, err := game.Covers(q.Atoms, q.Free, D, tuple, game.Options{})
			if err != nil {
				t.Fatal(err)
			}
			onChase, err := game.Covers(chq.Instance.Atoms(), frozen, D, tuple, game.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if onQ != onChase {
				t.Fatalf("Lemma 32 violated for %v:\nq-game=%v chase-game=%v\nD=%s",
					cand, onQ, onChase, D)
			}
		}
	}
}
