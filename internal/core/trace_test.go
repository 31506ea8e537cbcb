package core

import (
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/telemetry"
)

// TestTraceStructureDeterministicAcrossParallelism: the span tree's
// *structure* (names and nesting — never durations) is identical
// across two runs of the same input: candidate checks open no spans,
// so the tree follows the layers that ran. (The name predates the
// sequential search.)
func TestTraceStructureDeterministicAcrossParallelism(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var runs [2]string
			for i := range runs {
				rec := telemetry.NewRecorder("request")
				_, err := Decide(c.q, c.set, Options{SearchBudget: 1500, Trace: rec})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				runs[i] = rec.Finish().Structure()
				if runs[i] == "request" {
					t.Fatalf("run %d: no spans recorded", i)
				}
			}
			if runs[0] != runs[1] {
				t.Errorf("span structure diverged:\n  run 0: %s\n  run 1: %s", runs[0], runs[1])
			}
		})
	}
}

// TestTracingLeavesAnswerUnchanged: tracing is passive — attaching a
// recorder must not change the verdict, witness, definitiveness or the
// DETERMINISTIC stats fingerprint.
func TestTracingLeavesAnswerUnchanged(t *testing.T) {
	for _, c := range determinismCorpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			plain, err := Decide(c.q, c.set, Options{SearchBudget: 1500})
			if err != nil {
				t.Fatal(err)
			}
			rec := telemetry.NewRecorder("request")
			traced, err := Decide(c.q, c.set, Options{SearchBudget: 1500, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprintResult(traced), fingerprintResult(plain); got != want {
				t.Errorf("tracing changed the answer:\n  plain:  %s\n  traced: %s", want, got)
			}
			if got, want := traced.Stats.DeterministicFingerprint(), plain.Stats.DeterministicFingerprint(); got != want {
				t.Errorf("tracing changed the stats fingerprint:\n  plain:  %s\n  traced: %s", want, got)
			}
		})
	}
}

// TestTraceCoversPipelineLayers: a full decision's trace contains the
// decide span and the layer spans the pipeline traversed.
func TestTraceCoversPipelineLayers(t *testing.T) {
	rec := telemetry.NewRecorder("request")
	res, err := Decide(gen.Example1Query(), gen.Example1TGD(), Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Yes {
		t.Fatalf("verdict = %s, want yes", res.Verdict)
	}
	root := rec.Finish()
	structure := root.Structure()
	for _, want := range []string{"decide(", "layer:core"} {
		if !contains(structure, want) {
			t.Errorf("trace structure %q missing %q", structure, want)
		}
	}
}

// TestDecideChasesQueryOnce: the verifier owns chase(q,Σ), so a
// decision that reaches layer 4 chases q once, in one "chase" span
// inside layer 3, the first layer that needs it; layer 4 reads that
// chase. The sticky triangle with a third argument runs out of budget
// in layer 4 (over binary predicates the shape layer settles it before
// layer 4); layers 3 and 4 used to chase q each.
func TestDecideChasesQueryOnce(t *testing.T) {
	q, set := ternaryStickyCase()
	rec := telemetry.NewRecorder("request")
	res, err := Decide(q, set, Options{SearchBudget: 100, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	root := rec.Finish()
	if res.Layer != "budget" || !contains(root.Structure(), "layer:complete") {
		t.Fatalf("settled in layer %q with spans %s, want layer 4 to run out of budget", res.Layer, root.Structure())
	}
	var parents []string
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		for _, c := range s.Children {
			if c.Name == "chase" {
				parents = append(parents, s.Name)
			}
			walk(c)
		}
	}
	walk(root)
	if len(parents) != 1 || parents[0] != "layer:chase-subset" {
		t.Fatalf("chase spans under %v, want one under layer:chase-subset; spans %s", parents, root.Structure())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestExecuteTraceLeavesAnswersUnchanged: plan execution with a
// recorder attached returns byte-identical answers and EvalStats
// fingerprints, and records the execution phases in order. A Boolean
// Yannakakis plan runs exactly two phases (leaf loading and the
// bottom-up semijoin pass) whatever its answer; a plan with answer
// variables runs all four unless the reduction emptied a node.
func TestExecuteTraceLeavesAnswersUnchanged(t *testing.T) {
	const (
		boolean = "evaluate(execute(yannakakis:leaves,yannakakis:semijoin-up))"
		full    = "evaluate(execute(yannakakis:leaves,yannakakis:semijoin-up,yannakakis:semijoin-down,yannakakis:join))"
		reduced = "evaluate(execute(yannakakis:leaves,yannakakis:semijoin-up,yannakakis:semijoin-down))"
	)
	r := rand.New(rand.NewSource(23))
	seen := map[string]int{}
	boolHolds := 0
	for trial := 0; trial < 20; trial++ {
		bq := gen.RandomAcyclicCQ(r, 2+r.Intn(4), []string{"E", "F"})
		db := gen.RandomGraphDB(r, 10+r.Intn(30), 8)
		// Each trial runs the Boolean query and the same atoms with the
		// first variable free.
		for _, q := range []*cq.CQ{bq, cq.MustNew(bq.Vars()[:1], bq.Atoms)} {
			p, err := CompilePlan(q, &deps.Set{}, Options{}, MethodAuto)
			if err != nil {
				t.Fatalf("trial %d: compile: %v (q=%s)", trial, err, q)
			}
			plainAns, plainStats, err := p.Execute(db, EvalOptions{})
			if err != nil {
				t.Fatalf("trial %d: execute: %v", trial, err)
			}
			rec := telemetry.NewRecorder("evaluate")
			tracedAns, tracedStats, err := p.Execute(db, EvalOptions{Trace: rec})
			if err != nil {
				t.Fatalf("trial %d: traced execute: %v", trial, err)
			}
			if fmt.Sprint(tracedAns) != fmt.Sprint(plainAns) {
				t.Fatalf("trial %d: tracing changed answers\n plain  %v\n traced %v\nq=%s", trial, plainAns, tracedAns, q)
			}
			if got, want := tracedStats.Fingerprint(), plainStats.Fingerprint(); got != want {
				t.Fatalf("trial %d: tracing changed EvalStats fingerprint\n plain  %s\n traced %s", trial, want, got)
			}
			if p.Method != MethodYannakakis {
				continue
			}
			structure := rec.Finish().Structure()
			seen[structure]++
			if len(q.Free) == 0 && len(plainAns) > 0 {
				boolHolds++
			}
			switch {
			case len(q.Free) == 0 && structure != boolean:
				t.Fatalf("trial %d: Boolean span structure = %q, want %q (q=%s)", trial, structure, boolean, q)
			case len(q.Free) > 0 && len(plainAns) > 0 && structure != full:
				// The join phase is skipped when the semijoin reduction
				// already emptied a node — data-dependent, but
				// deterministic for a fixed (plan, db).
				t.Fatalf("trial %d: span structure = %q, want %q (q=%s)", trial, structure, full, q)
			case len(q.Free) > 0 && structure != full && structure != reduced:
				t.Fatalf("trial %d: span structure = %q, want %q or %q (q=%s)", trial, structure, full, reduced, q)
			}
		}
	}
	if boolHolds == 0 || seen[full] == 0 {
		t.Fatalf("span structures seen %v, %d true Boolean plans: want true Boolean plans and full runs", seen, boolHolds)
	}
}
