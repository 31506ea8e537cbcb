package core

import (
	"math/rand"
	"testing"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/gen"
)

// TestVerifyWitnessMatchesEquivalent: the hoisted verification — plain
// containment first, then Contains(q, w) and the shared checker's
// Check(w) — answers exactly what containment.Equivalent answers, for
// random queries of every workload class and their one- and two-step
// quotient moves.
func TestVerifyWitnessMatchesEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(184))
	compared := 0
	for _, class := range gen.WorkloadClasses {
		for trial := 0; trial < 12; trial++ {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 2+r.Intn(3), 4, 3)
			opt := Options{}.withDefaults()
			v := newVerifier(q, set, opt)

			start := q.DedupAtoms()
			cands := []*cq.CQ{start}
			for _, m := range quotientMoves(start) {
				cands = append(cands, m)
				cands = append(cands, quotientMoves(m)...)
			}
			for _, w := range cands {
				dec, wantErr := containment.Equivalent(q, w, set, opt.Containment)
				wantHolds, wantDef := dec.Holds && dec.Definitive, dec.Definitive
				holds, def, err := v.verifyWitness(w)
				if (err != nil) != (wantErr != nil) || holds != wantHolds || def != wantDef {
					t.Fatalf("%s: verifyWitness(%s)\nagainst q = %s under\n%s\n= (%v, %v, %v), Equivalent gives (%v, %v, %v)",
						class, w, q, set, holds, def, err, wantHolds, wantDef, wantErr)
				}
				compared++
			}
		}
	}
	t.Logf("%d verifications compared", compared)
}

// TestPreparedServesLayers2And3: the checker a decision prepares
// for itself verifies the layer-2 candidates too, not only layer 4's,
// and Stats.Containment.PreparedChecks counts its checks whichever
// layer settled. Example 1 settles in the quotient layer by dropping
// Owns(x,y); each acyclic atom drop needs w ⊆Σ q, which no plain
// homomorphism gives, so the checker serves it.
func TestPreparedServesLayers2And3(t *testing.T) {
	res, err := Decide(gen.Example1Query(), gen.Example1TGD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes || res.Layer != "quotient" {
		t.Fatalf("Example 1: verdict %v in layer %q, want yes in quotient", res.Verdict, res.Layer)
	}
	checks := res.Stats.Containment.PreparedChecks
	if checks == 0 {
		t.Fatal("the decision's checker served no check: layer 2 re-derived the right-hand side")
	}
	t.Logf("the decision's checker served %d checks", checks)
}
