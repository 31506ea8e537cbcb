// Command semacyc decides semantic acyclicity of a conjunctive query
// under a set of dependencies and prints the acyclic witness, per
// "Semantic Acyclicity Under Constraints" (PODS 2016).
//
// Usage:
//
//	semacyc -query 'q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).' \
//	        -deps  'Interest(x,z), Class(y,z) -> Owns(x,y).'
//	semacyc -query-file q.cq -deps-file sigma.tgd -approximate
//
// Dependencies may be empty (plain semantic acyclicity). Exit status is
// 0 for yes, 1 for no, 2 for unknown, 3 for usage/runtime errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	semacyclic "semacyclic"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		queryText   = flag.String("query", "", "conjunctive query, e.g. 'q(x) :- R(x,y).'")
		queryFile   = flag.String("query-file", "", "file containing the query")
		depsText    = flag.String("deps", "", "dependencies, one per line")
		depsFile    = flag.String("deps-file", "", "file containing the dependencies")
		ucqMode     = flag.Bool("ucq", false, "treat the query input as a UCQ (one CQ per line) and decide UCQ semantic acyclicity")
		approximate = flag.Bool("approximate", false, "also print an acyclic approximation when the answer is not yes")
		budget      = flag.Int("budget", 0, "search budget (candidate queries per layer)")
		verbose     = flag.Bool("v", false, "print decision details and a stats summary")
		showStats   = flag.Bool("stats", false, "print the decision's observability stats as JSON")
		statsOut    = flag.String("stats-out", "", "write the stats JSON to this file instead of stdout")
		showTree    = flag.Bool("join-tree", false, "print the witness's join tree")
		showDot     = flag.Bool("join-tree-dot", false, "print the witness's join tree in Graphviz dot")
		explain     = flag.Bool("explain", false, "print a re-checkable certificate for yes answers")
		dbText      = flag.String("db", "", "ground atoms: evaluate the query (via the witness when one exists) on this database")
		dbFile      = flag.String("db-file", "", "file containing ground atoms for -db evaluation")
	)
	flag.Parse()

	set, err := loadDeps(*depsText, *depsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	opt := semacyclic.Options{SearchBudget: *budget}

	if *ucqMode {
		return runUCQ(*queryText, *queryFile, set, opt)
	}

	q, err := loadQuery(*queryText, *queryFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	res, err := semacyclic.Decide(q, set, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}

	fmt.Printf("verdict: %s\n", res.Verdict)
	if res.Witness != nil {
		fmt.Printf("witness: %s\n", res.Witness)
		if *showTree || *showDot {
			forest, ok := semacyclic.JoinTree(res.Witness)
			if !ok {
				fmt.Fprintln(os.Stderr, "semacyc: internal: witness has no join tree")
				return 3
			}
			if *showTree {
				fmt.Println("join tree:")
				fmt.Println(forest)
			}
			if *showDot {
				fmt.Println(forest.DOT())
			}
		}
	}
	if *verbose {
		fmt.Printf("definitive: %v\nlayer: %s\nbound: %d\ncandidates: %d\n",
			res.Definitive, res.Layer, res.Bound, res.Candidates)
		if classes := semacyclic.Classes(set); len(classes) > 0 {
			fmt.Printf("classes: %v\n", classes)
		}
		printStatsSummary(res.Stats)
	}
	if *showStats || *statsOut != "" {
		if code := emitStats(res.Stats, *statsOut); code != 0 {
			return code
		}
	}
	if *explain && res.Verdict == semacyclic.Yes {
		cert, err := semacyclic.Explain(q, set, res, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semacyc: explain:", err)
			return 3
		}
		fmt.Println("certificate:")
		fmt.Println(cert)
	}
	if *dbText != "" || *dbFile != "" {
		if code := evaluateOnDB(q, set, res, *dbText, *dbFile); code != 0 {
			return code
		}
	}
	if res.Verdict != semacyclic.Yes && *approximate {
		ap, err := semacyclic.Approximate(q, set, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semacyc: approximation:", err)
			return 3
		}
		fmt.Printf("approximation: %s\n", ap.Query)
	}

	switch res.Verdict {
	case semacyclic.Yes:
		return 0
	case semacyclic.No:
		return 1
	default:
		return 2
	}
}

// printStatsSummary renders the -v one-line-per-subsystem stats view.
func printStatsSummary(st *semacyclic.Stats) {
	fmt.Printf("wall: %s\n", time.Duration(st.WallNS))
	for _, l := range st.Layers {
		fmt.Printf("layer %-13s candidates=%-6d wall=%s\n", l.Name, l.Candidates, time.Duration(l.WallNS))
	}
	c := st.Chase
	if c.Rounds > 0 {
		fmt.Printf("chase: rounds=%d triggers=%d/%d nulls=%d merges=%d atoms=%d complete=%v\n",
			c.Rounds, c.TriggersFired, c.TriggersCollected, c.NullsCreated, c.Merges, c.Atoms, c.Complete)
	}
	s := st.Search
	if s.Bound > 0 {
		fmt.Printf("search: bound=%d budget=%d candidates=%d observed=%d exhausted=%v\n",
			s.Bound, s.Budget, s.Candidates, s.CandidatesObserved, s.Exhausted)
		fmt.Printf("search: nodes=%d pruned=%d verified=%d memo cand=%d/%d\n",
			s.NodesVisited, s.PrunedByHom, s.Verified,
			s.CandMemoHits, s.CandMemoHits+s.CandMemoMisses)
	}
	if st.Containment.Method != "" {
		ct := st.Containment
		fmt.Printf("containment: method=%s prepared-checks=%d rewrite-disjuncts=%d\n",
			ct.Method, ct.PreparedChecks, ct.RewriteDisjuncts)
	}
	fmt.Printf("hom: enumerations=%d backtracks=%d\n", st.Hom.Enumerations, st.Hom.Backtracks)
}

// emitStats writes the stats JSON to the file (or stdout when empty).
// Every failure on the way out — create, write, sync, close, even a
// broken stdout pipe — exits 3 with a diagnostic: a stats run whose
// output silently vanished must not report success.
func emitStats(st *semacyclic.Stats, path string) int {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc: stats:", err)
		return 3
	}
	b = append(b, '\n')
	if path == "" {
		if _, err := os.Stdout.Write(b); err != nil {
			fmt.Fprintln(os.Stderr, "semacyc: stats:", err)
			return 3
		}
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc: stats:", err)
		return 3
	}
	_, werr := f.Write(b)
	serr := f.Sync()
	if cerr := f.Close(); werr == nil && serr == nil {
		serr = cerr
	}
	for _, err := range []error{werr, serr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "semacyc: stats:", err)
			return 3
		}
	}
	return 0
}

// evaluateOnDB evaluates the query on a user database: through the
// acyclic witness (Yannakakis) when the decision produced one, else
// directly with the generic evaluator.
func evaluateOnDB(q *semacyclic.CQ, set *semacyclic.Dependencies, res *semacyclic.Result, text, file string) int {
	src := text
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semacyc:", err)
			return 3
		}
		src = string(b)
	}
	db, err := semacyclic.ParseDatabase(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	if !semacyclic.Satisfies(db, set) {
		fmt.Fprintln(os.Stderr, "semacyc: warning: database violates the dependencies; answers follow plain CQ semantics")
	}
	var answers [][]semacyclic.Term
	how := "generic evaluator"
	if res.Verdict == semacyclic.Yes {
		answers, err = semacyclic.EvaluateAcyclic(res.Witness, db)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semacyc:", err)
			return 3
		}
		how = "yannakakis on witness"
	} else {
		answers = semacyclic.Evaluate(q, db)
	}
	fmt.Printf("answers (%s): %d\n", how, len(answers))
	for _, t := range answers {
		parts := make([]string, len(t))
		for i, x := range t {
			parts[i] = x.Name
		}
		fmt.Printf("  (%s)\n", strings.Join(parts, ", "))
	}
	return 0
}

// runUCQ handles -ucq mode: parse a union, decide per §8.1, print the
// acyclic union witness.
func runUCQ(text, file string, set *semacyclic.Dependencies, opt semacyclic.Options) int {
	src, err := pick("query", text, file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	u, err := semacyclic.ParseUCQ(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	res, err := semacyclic.DecideUCQ(u, set, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semacyc:", err)
		return 3
	}
	fmt.Printf("verdict: %s\n", res.Verdict)
	for i, red := range res.Redundant {
		if red {
			fmt.Printf("disjunct %d: redundant (Σ-contained in another disjunct)\n", i+1)
		}
	}
	if res.Witness != nil {
		fmt.Println("witness union:")
		for _, d := range res.Witness.Disjuncts {
			fmt.Println(" ", d)
		}
	}
	switch res.Verdict {
	case semacyclic.Yes:
		return 0
	case semacyclic.No:
		return 1
	default:
		return 2
	}
}

func loadQuery(text, file string) (*semacyclic.CQ, error) {
	src, err := pick("query", text, file)
	if err != nil {
		return nil, err
	}
	return semacyclic.ParseQuery(src)
}

func loadDeps(text, file string) (*semacyclic.Dependencies, error) {
	if text == "" && file == "" {
		return &semacyclic.Dependencies{}, nil
	}
	src, err := pick("deps", text, file)
	if err != nil {
		return nil, err
	}
	return semacyclic.ParseDependencies(src)
}

func pick(what, text, file string) (string, error) {
	switch {
	case text != "" && file != "":
		return "", fmt.Errorf("give -%s or -%s-file, not both", what, what)
	case text != "":
		return text, nil
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		return string(b), nil
	default:
		return "", fmt.Errorf("missing -%s (or -%s-file)", what, what)
	}
}
