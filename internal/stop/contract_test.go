package stop_test

import (
	"errors"
	"fmt"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// edges returns E(a<from>,a<from+1>), …, E(a<to-1>,a<to>).
func edges(from, to int) []instance.Atom {
	atoms := make([]instance.Atom, 0, to-from)
	for i := from; i < to; i++ {
		atoms = append(atoms, instance.NewAtom("E", term.Const(fmt.Sprintf("a%d", i)), term.Const(fmt.Sprintf("a%d", i+1))))
	}
	return atoms
}

// chain is a database of n E-edges along one path. Yannakakis polls
// once every 1,024 rows, so the evaluation cases use more rows than
// that.
func chain(t *testing.T, n int) *instance.Instance {
	t.Helper()
	db, err := instance.FromAtoms(edges(0, n)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// leftHolds runs l.Check(w, cancel) and returns its error, or an error
// when the check does not hold by method m.
func leftHolds(l *containment.PreparedLeft, w *cq.CQ, m containment.Method, cancel <-chan struct{}) error {
	dec, err := l.Check(w, cancel)
	if err != nil {
		return err
	}
	if !dec.Holds || dec.Method != m {
		return fmt.Errorf("Check(%s) = %+v, want holds by %s", w, dec, m)
	}
	return nil
}

// TestCancelContract is the cancellation contract, entry point by
// entry point: with a closed channel every cancellable call returns an
// error that errors.Is matches to stop.ErrCancelled, whichever engine
// polled it, and with a nil channel the same call succeeds. Explain
// used to break it twice on Example 1: it ignored a closed
// Options.Cancel, and a closed Containment.Chase.Cancel surfaced as
// the chase's own error, not the decision's. hom.EvaluateCancel broke
// it on every answer-free search, since it polled only at answers.
func TestCancelContract(t *testing.T) {
	// The paper's Example 1 under its tgd: full, so containment chases.
	q := cq.MustParse("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
	full := deps.MustParse("Interest(x,z), Class(y,z) -> Owns(x,y).")
	// Sticky and not guarded, so containment rewrites.
	sticky := deps.MustParse("US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y).")
	sq := cq.MustParse("q :- S0(x,y), S0(y,z).")
	path := cq.MustParse("q(x,y) :- E(x,y), E(y,z).")
	path1 := cq.MustParse("q(x) :- E(x,y).")
	triangle := cq.MustParse("q(x) :- E(x,y), E(y,z), E(z,x).")
	db, err := instance.Parse("Interest(ann,art). Class(c1,art).")
	if err != nil {
		t.Fatal(err)
	}

	yes, err := core.Decide(q, full, core.Options{})
	if err != nil || yes.Verdict != core.Yes {
		t.Fatalf("Decide(Example 1) = %v, %v; want yes", yes, err)
	}
	plan, err := core.CompilePlan(path, nil, core.Options{}, core.MethodYannakakis)
	if err != nil {
		t.Fatal(err)
	}
	forest, ok := hypergraph.GYO(path.Atoms)
	if !ok {
		t.Fatal("the path query is not acyclic")
	}
	compiled, err := yannakakis.Compile(path, forest)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := containment.Prepare(q, full, containment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	witness := cq.MustParse("q(x,y) :- Interest(x,z), Class(y,z).")
	ucq, err := cq.NewUCQ(q, witness)
	if err != nil {
		t.Fatal(err)
	}
	// Left checkers, one per method, each built once, so the nil-channel
	// call runs in the checker the cancelled call used: a cancellation
	// must never be kept. Each right-hand side holds under Σ but not
	// plainly, so the nil-channel call runs the method's procedure.
	guarded := deps.MustParse("Person(x) -> Parent(x,y).\nParent(x,y) -> Person(y).")
	chaseLeft := containment.PrepareLeft(witness, full, containment.Options{})
	boundedLeft := containment.PrepareLeft(cq.MustParse("q(x) :- Person(x)."), guarded, containment.Options{})
	rewriteLeft := containment.PrepareLeft(cq.MustParse("q :- US1(x), US0(y), US1(y), US0(z)."), sticky, containment.Options{})
	rewriter, err := rewrite.NewRewriter(sticky)
	if err != nil {
		t.Fatal(err)
	}
	copt := func(c <-chan struct{}) containment.Options {
		return containment.Options{Chase: chase.Options{Cancel: c}, Rewrite: rewrite.Options{Cancel: c}}
	}

	cases := []struct {
		name string
		run  func(cancel <-chan struct{}) error
	}{
		{"chase.Run", func(c <-chan struct{}) error {
			_, err := chase.Run(db, full, chase.Options{Cancel: c})
			return err
		}},
		{"chase.Query", func(c <-chan struct{}) error {
			_, _, err := chase.Query(q, full, chase.Options{Cancel: c})
			return err
		}},
		{"chase.Runner.Query", func(c <-chan struct{}) error {
			var r chase.Runner
			_, _, err := r.Query(q, full, chase.Options{Cancel: c})
			return err
		}},
		{"rewrite.Rewrite", func(c <-chan struct{}) error {
			_, err := rewrite.Rewrite(sq, sticky, rewrite.Options{Cancel: c})
			return err
		}},
		{"rewrite.Rewriter.Rewrite", func(c <-chan struct{}) error {
			_, err := rewriter.Rewrite(sq, rewrite.Options{Cancel: c})
			return err
		}},
		{"hom.CoreCancel", func(c <-chan struct{}) error {
			_, err := hom.CoreCancel(q, c)
			return err
		}},
		{"hom.EvaluateCancel", func(c <-chan struct{}) error {
			_, err := hom.EvaluateCancel(path, chain(t, 8), c)
			return err
		}},
		{"hom.EvaluateCancel/no-answers", func(c <-chan struct{}) error {
			// A chain has no triangle: the search yields no answer.
			_, err := hom.EvaluateCancel(triangle, chain(t, 8), c)
			return err
		}},
		{"game.Evaluate", func(c <-chan struct{}) error {
			_, err := game.Evaluate(path1.Atoms, path1.Free, chain(t, 8), game.Options{Cancel: c})
			return err
		}},
		{"yannakakis.Execute", func(c <-chan struct{}) error {
			_, err := compiled.Execute(chain(t, 3000), yannakakis.Options{Cancel: c})
			return err
		}},
		{"yannakakis.ExecuteDelta", func(c <-chan struct{}) error {
			// The repair path: every appended row is polled.
			db := chain(t, 100)
			_, prev, err := compiled.ExecuteState(db, yannakakis.Options{})
			if err != nil {
				return fmt.Errorf("ExecuteState: %w", err)
			}
			if _, err := db.ApplyDelta(edges(100, 3000), nil); err != nil {
				return fmt.Errorf("ApplyDelta: %w", err)
			}
			_, _, err = compiled.ExecuteDelta(prev, db, yannakakis.Options{Cancel: c})
			return err
		}},
		{"containment.Contains", func(c <-chan struct{}) error {
			_, err := containment.Contains(q, q, full, copt(c))
			return err
		}},
		{"containment.Prepare", func(c <-chan struct{}) error {
			_, err := containment.Prepare(sq, sticky, copt(c))
			return err
		}},
		{"containment.Prepared.Check", func(c <-chan struct{}) error {
			_, err := checker.Check(q, new(chase.Runner), c)
			return err
		}},
		{"containment.PreparedLeft.Check/chase", func(c <-chan struct{}) error {
			return leftHolds(chaseLeft, q, containment.MethodChase, c)
		}},
		{"containment.PreparedLeft.Check/bounded-chase", func(c <-chan struct{}) error {
			return leftHolds(boundedLeft, cq.MustParse("q(x) :- Parent(x,y), Parent(y,z)."), containment.MethodBounded, c)
		}},
		{"containment.PreparedLeft.Check/ucq-rewriting", func(c <-chan struct{}) error {
			return leftHolds(rewriteLeft, sq, containment.MethodRewrite, c)
		}},
		{"core.Decide", func(c <-chan struct{}) error {
			_, err := core.Decide(q, full, core.Options{Cancel: c})
			return err
		}},
		{"core.Approximate", func(c <-chan struct{}) error {
			_, err := core.Approximate(q, full, core.Options{Cancel: c})
			return err
		}},
		{"core.DecideUCQ", func(c <-chan struct{}) error {
			_, err := core.DecideUCQ(ucq, full, core.Options{Cancel: c})
			return err
		}},
		{"core.CompilePlan", func(c <-chan struct{}) error {
			_, err := core.CompilePlan(q, full, core.Options{Cancel: c}, core.MethodAuto)
			return err
		}},
		{"core.Plan.Execute", func(c <-chan struct{}) error {
			_, _, err := plan.Execute(chain(t, 3000), core.EvalOptions{Cancel: c})
			return err
		}},
		{"core.Plan.ExecuteIncremental", func(c <-chan struct{}) error {
			_, _, _, err := plan.ExecuteIncremental(chain(t, 3000), nil, core.EvalOptions{Cancel: c})
			return err
		}},
		{"core.Plan.ExecuteOverlay", func(c <-chan struct{}) error {
			ov, err := chain(t, 100).NewOverlay(edges(100, 3000), nil)
			if err != nil {
				return fmt.Errorf("NewOverlay: %w", err)
			}
			_, _, err = plan.ExecuteOverlay(ov, core.EvalOptions{Cancel: c})
			return err
		}},
		{"core.Explain", func(c <-chan struct{}) error {
			_, err := core.Explain(q, full, yes, core.Options{Cancel: c})
			return err
		}},
		{"core.Explain/Containment.Chase.Cancel", func(c <-chan struct{}) error {
			_, err := core.Explain(q, full, yes, core.Options{Containment: copt(c)})
			return err
		}},
	}
	closed := make(chan struct{})
	close(closed)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(closed); !errors.Is(err, stop.ErrCancelled) {
				t.Errorf("closed channel: err = %v, want stop.ErrCancelled", err)
			}
			if err := tc.run(nil); err != nil {
				t.Errorf("nil channel: %v", err)
			}
		})
	}
}
