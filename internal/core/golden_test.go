package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
)

// decideColdTemplates are the (query, Σ) texts of bench's decide-cold
// workload, built from gen exactly as bench/serve.go's coldTemplates
// builds them (without the per-tenant predicate renaming): the none,
// inclusion, sticky, non-recursive and key classes, settling in every
// decision layer.
func decideColdTemplates() [][2]string {
	const sticky = "US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y)."
	incl := "E(x,y) -> E(y,z)."
	self := "E(x,y) -> E(x,x)."
	q4, k4 := gen.Example4Query(), gen.Example4Key()
	q5, k5 := gen.Example5Grid(2)
	return [][2]string{
		{gen.CycleCQ(3).String(), incl},
		{gen.CycleCQ(4).String(), self},
		{"q :- S0(x,y), S0(y,z), S0(z,x).", sticky},
		{"q :- S0(x,y), S1(y,z), S0(z,x).", sticky},
		{gen.CliqueCQ(4).String(), self},
		{gen.Example1Query().String(), gen.Example1TGD().String()},
		{q4.String(), k4.String()},
		{q5.String(), k5.String()},
		{"q :- A(x,y), B(y,z), C(z,x).", "A(x,y) -> B(y,z).\nB(x,y) -> C(y,w)."},
		{gen.CycleCQ(3).String(), self},
		{"q(x) :- E(x,y), E(y,z), E(z,x).", self},
		{gen.PathCQ(5).String(), ""},
		{gen.CliqueCQ(3).String(), ""},
		{"q :- R(x,y), R(y,z), R(z,x), P(x), P(y), P(z).", gen.Example2Set().String()},
		{gen.StarCQ(5).String(), ""},
	}
}

// parseTemplate parses one decide-cold template.
func parseTemplate(t *testing.T, tpl [2]string) (*cq.CQ, *deps.Set) {
	t.Helper()
	q, err := cq.Parse(tpl[0])
	if err != nil {
		t.Fatalf("query %q: %v", tpl[0], err)
	}
	set := &deps.Set{}
	if tpl[1] != "" {
		if set, err = deps.Parse(tpl[1]); err != nil {
			t.Fatalf("deps %q: %v", tpl[1], err)
		}
	}
	return q, set
}

// TestDecideColdGolden freezes the decision outcomes of the decide-cold
// templates at budget 100: verdict, layer, candidates, witness and the
// deterministic fingerprint, and Approximate's query. A change that
// only makes the search cheaper must leave every line as it is.
// Regenerate with UPDATE_GOLDEN=1 only when a change to the decisions
// is intended.
func TestDecideColdGolden(t *testing.T) {
	var b bytes.Buffer
	for i, tpl := range decideColdTemplates() {
		q, set := parseTemplate(t, tpl)
		res, err := Decide(q, set, Options{SearchBudget: 100})
		if err != nil {
			t.Fatalf("template %d: %v", i, err)
		}
		witness := "-"
		if res.Witness != nil {
			witness = res.Witness.String()
		}
		fmt.Fprintf(&b, "%d %s %s candidates=%d witness=%s fp=%s\n",
			i, res.Verdict, res.Layer, res.Candidates, witness, res.Stats.DeterministicFingerprint())
		ap, err := Approximate(q, set, Options{SearchBudget: 100})
		if err != nil {
			fmt.Fprintf(&b, "%d approx error=%v\n", i, err)
		} else {
			fmt.Fprintf(&b, "%d approx %s equivalent=%v candidates=%d\n", i, ap.Query, ap.Equivalent, ap.Candidates)
		}
	}
	got := b.Bytes()
	golden := filepath.Join("testdata", "decide_cold.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d drifted from %s:\n got %s\nwant %s", i+1, golden, g, w)
			}
		}
	}
}
