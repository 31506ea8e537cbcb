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
// not serve, still runs out of budget in layer 4: 8,450. The bounds are
// the measured counts plus 5%.
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
		{templates[2], "shape", 2090},    // the sticky triangle
		{templates[3], "shape", 4350},    // S0,S1,S0 under the sticky set
		{templates[0], "shape", 815},     // the 3-cycle under E(x,y) → E(y,z)
		{ternarySticky, "budget", 8870},  // the sticky triangle, arity 3
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

// TestAllocsHugeWitnessBound guards layer 4 against an explicit
// MaxWitnessSize far beyond any depth the budget reaches. The option
// skips the default depth cap and the server passes a request's
// max_witness through unchecked, so scratch sized from the bound
// (bound·arity fresh names and argument slots) would ask for
// terabytes before the search began, or overflow; sized from the depth
// actually entered, the decision costs a few times what it does at the
// default bound: about 11,400 allocations, 22,700 before the search
// layers verified candidates in reusable chase runners. Under
// -race the allocation figures are skipped, but one deep search still
// runs. The search runs layer 4 alone: Decide now settles the sticky
// triangle in the shape layer, before layer 4.
func TestAllocsHugeWitnessBound(t *testing.T) {
	q, set := parseTemplate(t, decideColdTemplates()[2]) // the sticky triangle
	for _, w := range []int{1 << 40, math.MaxInt} {
		if testutil.RaceEnabled && w != 1<<40 {
			continue // one deep search serves the race detector
		}
		opt := Options{SearchBudget: 100, MaxWitnessSize: w}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		witness, st, _, exhausted, err := SearchComplete(q, set, opt, w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if witness != nil || exhausted || st.Search.Candidates != -1 {
			t.Fatalf("bound %d: witness %v, exhausted %v, candidates %d; want the budget to run out in layer 4", w, witness, exhausted, st.Search.Candidates)
		}
		if testutil.RaceEnabled {
			continue
		}
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("bound %d: %.1f MB in %d allocations", w, mb, allocs)
		if mb > 16 || allocs > 15000 {
			t.Errorf("bound %d: deciding %s allocated %.1f MB in %d allocations, want at most 16 MB and 15,000", w, q, mb, allocs)
		}
	}
}
