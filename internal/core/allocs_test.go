package core

import (
	"math"
	"runtime"
	"testing"

	"semacyclic/internal/testutil"
)

// TestAllocsDecide guards the search layers' scratch-built candidates:
// a layer copies a candidate only when it keeps it. The first template
// settles in layer 2: 70 candidates examined, 1,413 moves generated and
// 233 of them new; materializing every move before the seen check took
// 24,892 allocations. The other three exhaust the budget through layers
// 2 to 4, where layer 4 prunes, keys and verifies uncloned prefixes,
// builds extensions in per-level buffers, and freezes and chases every
// candidate in its branch's chase.Runner; layers 2 and 3 verify in the
// verifier's runner, and neither checks a candidate through
// CQ.Validate. Copying extension atoms and candidates took the sticky
// triangle 16,580 allocations, and a new instance, chase state and set
// of frozen constants per verified candidate 9,167; the 3-cycle under
// E(x,y) → E(y,z) took 16,787. The two sticky templates rewrite every
// layer-2/3 candidate in q ⊆Σ w: a rewriting that renamed each tgd,
// froze the disjunct and built fresh queries per step, and froze each
// core round into a new instance, took the sticky triangle 5,602
// allocations and S0,S1,S0 14,033. Layers 3 and 4 each chasing q took
// the three 3,305, 4,792 and 6,223; they share the verifier's chase
// now, at 3,275, 4,711 and 6,186. The bounds are those counts plus 5%.
func TestAllocsDecide(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	templates := decideColdTemplates()
	for _, tc := range []struct {
		tpl   [2]string
		layer string
		bound float64
	}{
		{templates[4], "quotient", 1350}, // clique4 under E(x,y) → E(x,x)
		{templates[2], "budget", 3440},   // the sticky triangle
		{templates[3], "budget", 4950},   // S0,S1,S0 under the sticky set
		{templates[0], "budget", 6500},   // the 3-cycle under E(x,y) → E(y,z)
	} {
		q, set := parseTemplate(t, tc.tpl)
		opt := Options{SearchBudget: 100, Parallelism: 1}
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

// TestAllocsHugeWitnessBound guards layer 4 against an explicit
// MaxWitnessSize far beyond any depth the budget reaches. The option
// skips the default depth cap and the server passes a request's
// max_witness through unchecked, so scratch sized from the bound
// (bound·arity fresh names and argument slots per branch) would ask
// for terabytes before the search began, or overflow; sized from the
// depth actually entered, the decision costs a few times what it does
// at the default bound: about 14,100 allocations, 22,700 before the
// search layers verified candidates in reusable chase runners. Under
// -race the allocation figures are skipped, but one deep search still
// runs at -j 4, so branches growing their own fresh names past the
// shared ones run concurrently.
func TestAllocsHugeWitnessBound(t *testing.T) {
	q, set := parseTemplate(t, decideColdTemplates()[2]) // the sticky triangle
	for _, w := range []int{1 << 40, math.MaxInt} {
		for _, par := range []int{1, 4} {
			if testutil.RaceEnabled && (w != 1<<40 || par == 1) {
				continue // one concurrent deep search serves the race detector
			}
			opt := Options{SearchBudget: 100, Parallelism: par, MaxWitnessSize: w}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Decide(q, set, opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Layer != "budget" {
				t.Fatalf("bound %d, -j %d: settled in layer %q, want the budget to run out in layer 4", w, par, res.Layer)
			}
			if testutil.RaceEnabled {
				continue
			}
			mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			allocs := after.Mallocs - before.Mallocs
			t.Logf("bound %d, -j %d: %.1f MB in %d allocations", w, par, mb, allocs)
			if mb > 16 || allocs > 15000 {
				t.Errorf("bound %d, -j %d: deciding %s allocated %.1f MB in %d allocations, want at most 16 MB and 15,000", w, par, q, mb, allocs)
			}
		}
	}
}
