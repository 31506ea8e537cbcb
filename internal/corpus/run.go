package corpus

import (
	"fmt"
	"strings"

	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
)

// Run executes one case: parse-tier cases exercise the named parser,
// eval-tier cases run the full differential cross-check, error-tier
// cases assert the stable failure. A nil error means the case holds.
func Run(c *Case) error {
	switch c.Tier {
	case "parse":
		return runParse(c)
	case "eval":
		return runEval(c)
	case "error":
		return runError(c)
	}
	return fmt.Errorf("corpus: %s: unknown tier", c.Name)
}

// runParse feeds the input to the case's parser. Failure cases demand
// an error containing want_error. Success cases demand a clean parse;
// when canonical is set, the rendering must match it and the rendering
// must re-parse to itself (canonical is a fixpoint), and instances
// must additionally survive Dump → Parse → Equal.
func runParse(c *Case) error {
	raw, err := c.Bytes()
	if err != nil {
		return err
	}
	input := string(raw)
	render, parseErr := parseAndRender(c.Parser, input)
	if c.WantError != "" {
		if parseErr == nil {
			return fmt.Errorf("corpus: %s: parser accepted input, want error containing %q", c.Name, c.WantError)
		}
		if !strings.Contains(parseErr.Error(), c.WantError) {
			return fmt.Errorf("corpus: %s: error = %q, want substring %q", c.Name, parseErr, c.WantError)
		}
		return nil
	}
	if parseErr != nil {
		return fmt.Errorf("corpus: %s: parse failed: %w", c.Name, parseErr)
	}
	if c.Canonical != "" && render != c.Canonical {
		return fmt.Errorf("corpus: %s: canonical rendering = %q, want %q", c.Name, render, c.Canonical)
	}
	again, reparseErr := parseAndRender(c.Parser, render)
	if reparseErr != nil {
		return fmt.Errorf("corpus: %s: canonical rendering does not re-parse: %w\n%s", c.Name, reparseErr, render)
	}
	if again != render {
		return fmt.Errorf("corpus: %s: rendering not a fixpoint:\n%q\nvs\n%q", c.Name, again, render)
	}
	return nil
}

// parseAndRender runs the named parser and returns the canonical
// rendering of the result (String for cq/deps, Dump for instance).
// For instances it also checks Parse(Dump(I)).Equal(I).
func parseAndRender(parser, input string) (string, error) {
	switch parser {
	case "cq":
		q, err := cq.Parse(input)
		if err != nil {
			return "", err
		}
		return q.String(), nil
	case "deps":
		s, err := deps.Parse(input)
		if err != nil {
			return "", err
		}
		return s.String(), nil
	case "instance":
		db, err := instance.Parse(input)
		if err != nil {
			return "", err
		}
		dump, err := db.Dump()
		if err != nil {
			return "", fmt.Errorf("parsed instance is not dumpable: %w", err)
		}
		back, err := instance.Parse(dump)
		if err != nil {
			return "", fmt.Errorf("dump does not re-parse: %w", err)
		}
		if !back.Equal(db) {
			return "", fmt.Errorf("Parse(Dump(I)) != I:\n%s\nvs\n%s", back, db)
		}
		return dump, nil
	}
	return "", fmt.Errorf("unknown parser %q", parser)
}

// parseTriple reads the eval-tier (query, Σ, database) fields.
func parseTriple(c *Case) (*cq.CQ, *deps.Set, *instance.Instance, error) {
	q, err := cq.Parse(c.Query)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: %s: query: %w", c.Name, err)
	}
	set := &deps.Set{}
	if c.Deps != "" {
		set, err = deps.Parse(c.Deps)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("corpus: %s: deps: %w", c.Name, err)
		}
	}
	db, err := instance.Parse(c.Database)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: %s: database: %w", c.Name, err)
	}
	return q, set, db, nil
}

// runEval cross-checks every applicable evaluation method on the
// case's triple and compares verdict and canonical answers against the
// frozen expectations.
func runEval(c *Case) error {
	q, set, db, err := parseTriple(c)
	if err != nil {
		return err
	}
	rep, err := core.CrossCheck(q, set, db, core.Options{})
	if err != nil {
		return fmt.Errorf("corpus: %s: %w", c.Name, err)
	}
	if got := rep.Verdict.String(); got != c.Verdict {
		return fmt.Errorf("corpus: %s: verdict = %s, want %s", c.Name, got, c.Verdict)
	}
	if err := compareAnswers(c.Name, "", gen.AnswerStrings(rep.Answers), c.Answers); err != nil {
		return err
	}
	if c.DeltaInsert == "" && c.DeltaDelete == "" {
		return nil
	}
	return runEvalDelta(c, q, set, db)
}

// runEvalDelta applies the case's delta batch to the already-checked
// database and freezes the post-batch answers twice: on the patched
// instance (the delta-maintenance path) and on a from-scratch rebuild
// of the same atom set (the batch-build path). Any divergence between
// the two is an index/view maintenance bug, not a data change.
func runEvalDelta(c *Case, q *cq.CQ, set *deps.Set, db *instance.Instance) error {
	ins, err := instance.ParseAtoms(c.DeltaInsert)
	if err != nil {
		return fmt.Errorf("corpus: %s: delta_insert: %w", c.Name, err)
	}
	del, err := instance.ParseAtoms(c.DeltaDelete)
	if err != nil {
		return fmt.Errorf("corpus: %s: delta_delete: %w", c.Name, err)
	}
	res, err := db.ApplyDelta(ins, del)
	if err != nil {
		return fmt.Errorf("corpus: %s: ApplyDelta: %w", c.Name, err)
	}
	if res.Epoch != db.Epoch() {
		return fmt.Errorf("corpus: %s: DeltaResult epoch %d != instance epoch %d", c.Name, res.Epoch, db.Epoch())
	}
	rebuilt, err := instance.FromAtoms(db.Atoms()...)
	if err != nil {
		return fmt.Errorf("corpus: %s: rebuilding patched atom set: %w", c.Name, err)
	}
	for _, arm := range []struct {
		label string
		db    *instance.Instance
	}{{"patched", db}, {"rebuilt", rebuilt}} {
		rep, err := core.CrossCheck(q, set, arm.db, core.Options{})
		if err != nil {
			return fmt.Errorf("corpus: %s: %s: %w", c.Name, arm.label, err)
		}
		if err := compareAnswers(c.Name, arm.label+" delta ", gen.AnswerStrings(rep.Answers), c.DeltaAnswers); err != nil {
			return err
		}
	}
	return nil
}

// compareAnswers checks one canonical answer matrix against its frozen
// expectation.
func compareAnswers(name, label string, got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("corpus: %s: %d %sanswers, want %d", name, len(got), label, len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("corpus: %s: %sanswer %d arity %d, want %d", name, label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("corpus: %s: %sanswer %d = %v, want %v", name, label, i, got[i], want[i])
			}
		}
	}
	return nil
}

// Monotonicity runs the decision-layer monotonicity and memo
// independence contract on an eval-tier case.
func Monotonicity(c *Case) error {
	q, set, _, err := parseTriple(c)
	if err != nil {
		return err
	}
	if err := core.CheckLayerMonotonicity(q, set, core.Options{}); err != nil {
		return fmt.Errorf("corpus: %s: %w", c.Name, err)
	}
	return nil
}

// runError asserts the staged failure: the named stage must reject its
// input with a message containing want_error, and every stage before
// it must succeed.
func runError(c *Case) error {
	var stageErr error
	switch c.Stage {
	case "query":
		_, stageErr = cq.Parse(c.Query)
	case "deps":
		_, stageErr = deps.Parse(c.Deps)
	case "database":
		_, stageErr = instance.Parse(c.Database)
	case "compile":
		q, err := cq.Parse(c.Query)
		if err != nil {
			return fmt.Errorf("corpus: %s: query must parse for a compile-stage case: %w", c.Name, err)
		}
		set := &deps.Set{}
		if c.Deps != "" {
			set, err = deps.Parse(c.Deps)
			if err != nil {
				return fmt.Errorf("corpus: %s: deps must parse for a compile-stage case: %w", c.Name, err)
			}
		}
		_, stageErr = core.CompilePlan(q, set, core.Options{}, c.Method)
	}
	if stageErr == nil {
		return fmt.Errorf("corpus: %s: stage %s accepted input, want error containing %q", c.Name, c.Stage, c.WantError)
	}
	if !strings.Contains(stageErr.Error(), c.WantError) {
		return fmt.Errorf("corpus: %s: stage %s error = %q, want substring %q", c.Name, c.Stage, stageErr, c.WantError)
	}
	return nil
}
