package semacyclic

import (
	"path/filepath"
	"testing"

	"semacyclic/internal/corpus"
)

// corpusRoot is the auto-discovered torture corpus; see
// internal/corpus for the case format and docs/ARCHITECTURE.md for
// how to add a case.
const corpusRoot = "testdata/corpus"

// TestCorpus runs every corpus case: parse-torture cases against the
// three parsers, eval cases through the differential cross-check
// (every applicable method must reproduce the frozen verdict and
// answers), and error cases against their stable messages. New .json
// files under testdata/corpus are picked up automatically.
func TestCorpus(t *testing.T) {
	cases, err := corpus.Load(corpusRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 25 {
		t.Fatalf("corpus has %d cases, want at least 25", len(cases))
	}
	perTier := make(map[string]int)
	for _, c := range cases {
		perTier[c.Tier]++
	}
	for _, tier := range corpus.Tiers {
		if perTier[tier] == 0 {
			t.Fatalf("corpus tier %s is empty", tier)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.ToSlash(c.Name), func(t *testing.T) {
			t.Parallel()
			if err := corpus.Run(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCorpusLayerMonotonicity asserts the decision pipeline's
// structural contracts — identical decisions with and without the
// search memo, and layer-k yes implying layer-(k+1) yes — on every
// eval-tier (q, Σ) pair of the corpus.
func TestCorpusLayerMonotonicity(t *testing.T) {
	cases, err := corpus.Load(corpusRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Tier != "eval" {
			continue
		}
		c := c
		t.Run(filepath.ToSlash(c.Name), func(t *testing.T) {
			t.Parallel()
			if err := corpus.Monotonicity(c); err != nil {
				t.Error(err)
			}
		})
	}
}
