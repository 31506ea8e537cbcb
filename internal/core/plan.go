package core

import (
	"errors"
	"fmt"
	"slices"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// Evaluation method tags carried on Plan.Method and accepted by
// CompilePlan. MethodAuto (or "") picks exactly as the package's
// one-shot helpers do: Yannakakis on the acyclic witness when the
// decision is Yes, the generic backtracking evaluator otherwise.
const (
	MethodAuto        = "auto"
	MethodYannakakis  = "yannakakis"
	MethodGuardedGame = "guarded-game"
	MethodEGDGame     = "egd-game"
	MethodGeneric     = "generic"
)

// Plan is a compiled evaluation plan for a fixed (q, Σ): the decision
// verdict, the selected method and — for the Yannakakis method — the
// acyclic witness with its join forest. Compilation performs all the
// data-independent work (the expensive part of Proposition 24); Execute
// then runs in time linear in each database for the tractable methods.
// Plans are immutable after CompilePlan and safe for concurrent
// Execute calls, which is what lets the semacycd server cache them.
type Plan struct {
	// Query is the original query (evaluated directly by the game and
	// generic methods).
	Query *cq.CQ
	// Set is the dependency set (needed at execution time only by the
	// egd-game method, whose pattern is the chased query).
	Set *deps.Set
	// Method is the selected evaluation method tag.
	Method string
	// Witness and Forest are the acyclic reformulation and its join
	// forest; non-nil exactly for MethodYannakakis.
	Witness *cq.CQ
	Forest  *hypergraph.Forest
	// Verdict and Layer record the semantic-acyclicity decision behind
	// the method selection (Verdict is Unknown for methods that skip
	// the decision: explicit game or generic requests).
	Verdict Verdict
	Layer   string
	// pattern and frozen are the chased query for MethodEGDGame,
	// computed once at compile time.
	pattern []instance.Atom
	frozen  []term.Term
	// compiled is the witness's interned Yannakakis program for
	// MethodYannakakis: the whole query side (argument structure,
	// semijoin columns, join/projection programs) is integer-coded once
	// here, so Execute never re-interns the query per database.
	compiled *yannakakis.Compiled
}

// EvalOptions tunes one Plan.Execute run.
type EvalOptions struct {
	// Cancel, when non-nil, aborts the evaluation as soon as the
	// channel is closed; Execute then returns stop.ErrCancelled. Wire a
	// context's Done() channel here.
	Cancel <-chan struct{}
	// Trace, when non-nil, receives an "execute" span with per-phase
	// children from the Yannakakis evaluator (leaf loading, the two
	// semijoin passes, the join). Nil is free — see core.Options.Trace.
	Trace *telemetry.Recorder
}

// CompilePlan compiles an evaluation plan for (q, Σ). method is one of
// the Method tags or "" (auto):
//
//   - auto: Decide(q, Σ, opt); verdict Yes selects Yannakakis on the
//     verified witness, anything else falls back to the generic
//     backtracking evaluator (sound on every database, just not
//     guaranteed tractable).
//   - yannakakis: like auto but fails unless the decision is Yes.
//   - guarded-game: the Theorem 25 evaluator; requires a guarded pure
//     tgd set. The decision is skipped — that is the theorem's point —
//     so the semantic-acyclicity precondition is the caller's.
//   - egd-game: the Section 7 chase-then-game evaluator; requires a
//     pure egd set. The chase of q happens here, once.
//   - generic: the backtracking evaluator, no decision at all.
func CompilePlan(q *cq.CQ, set *deps.Set, opt Options, method string) (*Plan, error) {
	sp := opt.Trace.Start("compile")
	defer sp.End()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if set == nil {
		set = &deps.Set{}
	}
	p := &Plan{Query: q, Set: set, Verdict: Unknown}
	switch method {
	case MethodGeneric:
		p.Method = MethodGeneric
		return p, nil
	case MethodGuardedGame:
		if !set.PureTGDs() || !set.IsGuarded() {
			return nil, fmt.Errorf("core: method %s requires a guarded pure tgd set", MethodGuardedGame)
		}
		p.Method = MethodGuardedGame
		return p, nil
	case MethodEGDGame:
		if !set.PureEGDs() {
			return nil, fmt.Errorf("core: method %s requires a pure egd set", MethodEGDGame)
		}
		res, frozen, err := chase.Query(q, set, chase.Options{Cancel: opt.Cancel})
		if err != nil {
			if errors.Is(err, stop.ErrCancelled) {
				return nil, err
			}
			// A failing egd chase means q is unsatisfiable on databases
			// ⊨ Σ: the plan evaluates to the empty answer set.
			p.Method = MethodEGDGame
			return p, nil
		}
		p.Method = MethodEGDGame
		p.pattern = res.Instance.Atoms()
		p.frozen = frozen
		return p, nil
	case "", MethodAuto, MethodYannakakis:
		res, err := Decide(q, set, opt)
		if err != nil {
			return nil, err
		}
		p.Verdict, p.Layer = res.Verdict, res.Layer
		if res.Verdict == Yes {
			forest, ok := hypergraph.GYO(res.Witness.Atoms)
			if !ok {
				return nil, fmt.Errorf("core: verified witness %s is not acyclic", res.Witness)
			}
			compiled, err := yannakakis.Compile(res.Witness, forest)
			if err != nil {
				return nil, fmt.Errorf("core: compiling witness %s: %w", res.Witness, err)
			}
			p.Method, p.Witness, p.Forest, p.compiled = MethodYannakakis, res.Witness, forest, compiled
			return p, nil
		}
		if method == MethodYannakakis {
			return nil, fmt.Errorf("core: query is not verifiably semantically acyclic (verdict %s)", res.Verdict)
		}
		p.Method = MethodGeneric
		return p, nil
	default:
		return nil, fmt.Errorf("core: unknown evaluation method %q", method)
	}
}

// Execute runs the plan against one database, returning the answer set
// in canonical (sorted, deduplicated) order together with the
// evaluation stats. Safe for concurrent use.
func (p *Plan) Execute(db *instance.Instance, eopt EvalOptions) ([][]term.Term, *obs.EvalStats, error) {
	st := &obs.EvalStats{Method: p.Method}
	sw := telemetry.StartTimer()
	sp := eopt.Trace.Start("execute")
	defer sp.End()
	var (
		ans [][]term.Term
		err error
	)
	switch p.Method {
	case MethodYannakakis:
		ans, err = p.compiled.Execute(db, yannakakis.Options{
			Cancel: eopt.Cancel,
			Stats:  st,
			Trace:  eopt.Trace,
		})
	case MethodGuardedGame:
		ans, err = game.Evaluate(p.Query.Atoms, p.Query.Free, db, game.Options{Cancel: eopt.Cancel})
	case MethodEGDGame:
		// A nil pattern (failing chase at compile time) is the empty
		// answer set; the game would cover an empty pattern.
		if p.pattern != nil {
			ans, err = game.Evaluate(p.pattern, p.frozen, db, game.Options{Cancel: eopt.Cancel})
		}
	case MethodGeneric:
		ans, err = hom.EvaluateCancel(p.Query, db, eopt.Cancel)
	default:
		return nil, nil, fmt.Errorf("core: plan has unknown method %q", p.Method)
	}
	if err != nil {
		return nil, nil, err
	}
	ans = canonicalizeAnswers(ans)
	st.Answers = len(ans)
	st.WallNS = sw.ElapsedNS()
	return ans, st, nil
}

// canonicalizeAnswers puts an answer set in canonical order — strictly
// increasing under term.CompareTuples, the canonical key order — so
// every method returns byte-identical answer lists for equal answer
// sets. Yannakakis and the generic path already emit that order, and
// for them this is one allocation-free pass that checks it. The game
// paths enumerate candidate tuples in database order, possibly with
// duplicates; their answers are sorted and deduplicated in place.
func canonicalizeAnswers(ans [][]term.Term) [][]term.Term {
	for i := 1; i < len(ans); i++ {
		if term.CompareTuples(ans[i-1], ans[i]) >= 0 {
			slices.SortFunc(ans, term.CompareTuples)
			return slices.CompactFunc(ans, equalTuples)
		}
	}
	return ans
}

func equalTuples(a, b []term.Term) bool { return term.CompareTuples(a, b) == 0 }
