package core

import (
	"testing"

	"semacyclic/internal/testutil"
)

// TestAllocsDecide guards the search layers' scratch-built candidates:
// a layer copies a candidate only when it keeps it. The first template
// settles in layer 2: 70 candidates examined, 1,413 moves generated and
// 233 of them new; materializing every move before the seen check took
// 24,892 allocations. The other three exhaust the budget through layers
// 2 to 4, where layer 4 prunes, keys and verifies uncloned prefixes,
// builds extensions in per-level buffers, and layers 2 to 4 freeze and
// chase every candidate in the verifier's one chase.Runner; no layer
// checks a candidate through CQ.Validate. Copying extension atoms and candidates took the sticky
// triangle 16,580 allocations, and a new instance, chase state and set
// of frozen constants per verified candidate 9,167; the 3-cycle under
// E(x,y) → E(y,z) took 16,787. The two sticky templates rewrite every
// layer-2/3 candidate in q ⊆Σ w: a rewriting that renamed each tgd,
// froze the disjunct and built fresh queries per step, and froze each
// core round into a new instance, took the sticky triangle 5,602
// allocations and S0,S1,S0 14,033. Layers 3 and 4 each chasing q took
// the three 3,305, 4,792 and 6,223; sharing the verifier's chase took
// 3,275, 4,711 and 6,186. Layer 4 walking its branches in one
// goroutine, with the verifier's runner, one keyer, a plain-map memo
// and scratch reused across branches, takes 2,945, 4,373 and 5,831.
// The shape layer settles the three binary templates before layer 4
// (definitive no after 8, 12 and 3 checks): 1,992, 4,140 and 774. The
// sticky triangle with a third argument, which the shape layer does
// not serve, still runs out of budget in layer 4: 8,450. Checking
// q ⊆Σ w in one left checker per decision, which freezes q once, keeps
// chase(q,Σ) per depth budget and rewrites the candidates in one reused
// rewrite.Rewriter, with the enumerators of 65 to 1,024 terms pooled,
// takes templates 0, 2 and 3 from 775, 2,007 and 4,155 to 570, 971 and
// 2,075, and the ternary triangle from 8,426 to 5,396. Template 8 (A, B,
// C under two linear tgds, whose checks chase) took 1,113 and takes 460;
// template 7 (Example 5's grid, settled by layer 1's core, whose
// retraction searches exceed 64 terms) took 579 and takes 123. The
// bounds are the measured counts plus 5%.
func TestAllocsDecide(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	templates := decideColdTemplates()
	q3, set3 := ternaryStickyCase()
	ternarySticky := [2]string{q3.String(), set3.String()}
	for _, tc := range []struct {
		tpl   [2]string
		layer string
		bound float64
	}{
		{templates[4], "quotient", 1350}, // clique4 under E(x,y) → E(x,x)
		{templates[2], "shape", 1020},    // the sticky triangle
		{templates[3], "shape", 2179},    // S0,S1,S0 under the sticky set
		{templates[0], "shape", 599},     // the 3-cycle under E(x,y) → E(y,z)
		{ternarySticky, "budget", 5666},  // the sticky triangle, arity 3
		{templates[8], "shape", 483},     // A,B,C under two linear tgds
		{templates[7], "core", 129},      // Example 5's grid
	} {
		q, set := parseTemplate(t, tc.tpl)
		opt := Options{SearchBudget: 100}
		res, err := Decide(q, set, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Layer != tc.layer {
			t.Fatalf("%s: settled in layer %q, want %q", q, res.Layer, tc.layer)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Decide(q, set, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s (%s): %v allocs per decision", q, tc.layer, allocs)
		if allocs > tc.bound {
			t.Errorf("deciding %s allocates %v, want at most %v", q, allocs, tc.bound)
		}
	}
}
