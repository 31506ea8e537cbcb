// Package semacyclic is a library for semantic acyclicity of
// conjunctive queries under database constraints, implementing
// "Semantic Acyclicity Under Constraints" (Barceló, Gottlob, Pieris,
// PODS 2016) end to end:
//
//   - deciding whether a CQ is equivalent to an acyclic CQ over all
//     databases satisfying a set of tgds or egds (SemAc), with verified
//     acyclic witnesses;
//   - the substrate the paper builds on: conjunctive queries, the
//     chase for tgds and egds, CQ containment under guarded / linear /
//     inclusion / non-recursive / sticky tgds and egds, UCQ rewriting,
//     acyclicity via GYO join trees, Yannakakis evaluation, cores;
//   - acyclic-CQ approximations (§8.2), UCQ semantic acyclicity (§8.1);
//   - fixed-parameter tractable evaluation of semantically acyclic
//     queries (Prop. 24) and the polynomial existential 1-cover game
//     evaluation for guarded tgds (Thm. 25).
//
// The quickest start:
//
//	q, _ := semacyclic.ParseQuery("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).")
//	Σ, _ := semacyclic.ParseDependencies("Interest(x,z), Class(y,z) -> Owns(x,y).")
//	res, _ := semacyclic.Decide(q, Σ, semacyclic.Options{})
//	fmt.Println(res.Verdict, res.Witness) // yes q(x,y) :- Interest(x,z), Class(y,z)
//
// The facade re-exports the stable surface of the internal packages;
// power users needing lower-level control (chase options, rewriting
// budgets) reach them through the option structs re-exported here.
package semacyclic

import (
	"slices"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/term"
	"semacyclic/internal/yannakakis"
)

// Re-exported data types. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// Term is a constant, labelled null or variable.
	Term = term.Term
	// Subst is a substitution over terms.
	Subst = term.Subst
	// Atom is a predicate applied to terms.
	Atom = instance.Atom
	// Instance is an indexed set of atoms (a database when finite and
	// variable-free, which Instance enforces).
	Instance = instance.Instance
	// Delta is one batch of inserts and deletes, as journalled by
	// Instance.ApplyDelta and bridged by Instance.DeltaSince.
	Delta = instance.Delta
	// DeltaResult reports an applied batch: the new epoch and the net
	// insert/delete counts after set semantics collapse the batch.
	DeltaResult = instance.DeltaResult
	// Overlay is a copy-on-write what-if view: a hypothetical delta
	// layered over a shared base instance without copying or mutating
	// it (Instance.NewOverlay).
	Overlay = instance.Overlay
	// CQ is a conjunctive query.
	CQ = cq.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = cq.UCQ
	// TGD is a tuple-generating dependency.
	TGD = deps.TGD
	// EGD is an equality-generating dependency.
	EGD = deps.EGD
	// FD is a functional dependency.
	FD = deps.FD
	// Dependencies is a finite set of tgds and egds.
	Dependencies = deps.Set
	// Class names a syntactic dependency class from the paper.
	Class = deps.Class

	// Options tunes Decide / Approximate / DecideUCQ / NewEvaluator.
	Options = core.Options
	// Result is a semantic-acyclicity decision with its witness.
	Result = core.Result
	// UCQResult is the UCQ-variant decision.
	UCQResult = core.UCQResult
	// Approximation is a maximally contained acyclic CQ (§8.2).
	Approximation = core.Approximation
	// Verdict is yes / no / unknown.
	Verdict = core.Verdict
	// Plan is a compiled evaluation plan for a fixed (q, Σ): the
	// decision, method selection and join forest happen once; Execute
	// then runs per database.
	Plan = core.Plan
	// EvalOptions tunes one Plan.Execute run (cancellation, tracing).
	EvalOptions = core.EvalOptions
	// ReducerState is the retained per-plan semijoin state that
	// Plan.ExecuteIncremental repairs from an instance's delta journal
	// instead of recomputing.
	ReducerState = core.ReducerState
	// Certificate is a re-checkable proof behind a Yes decision.
	Certificate = core.Certificate

	// ContainmentOptions tunes CQ containment under constraints.
	ContainmentOptions = containment.Options
	// ContainmentDecision is a containment verdict with definitiveness.
	ContainmentDecision = containment.Decision
	// ChaseOptions tunes the chase engine.
	ChaseOptions = chase.Options
	// ChaseResult is a chase outcome.
	ChaseResult = chase.Result
	// RewriteOptions tunes UCQ rewriting.
	RewriteOptions = rewrite.Options
	// RewriteResult is a computed UCQ rewriting.
	RewriteResult = rewrite.Result
	// JoinForest is an explicit join forest certifying acyclicity.
	JoinForest = hypergraph.Forest

	// Stats is the per-decision observability snapshot on Result.Stats;
	// see the internal/obs package comment for the DETERMINISTIC vs
	// NONDETERMINISTIC field classification.
	Stats = obs.Stats
	// ChaseStats observes one chase run (also on ChaseResult.Stats).
	ChaseStats = obs.ChaseStats
	// SearchStats observes the complete-search layer.
	SearchStats = obs.SearchStats
	// ContainmentStats observes the verification side of the search.
	ContainmentStats = obs.ContainmentStats
	// HomStats is a delta of the homomorphism-engine counters.
	HomStats = obs.HomStats
	// LayerStats is one decision layer's record.
	LayerStats = obs.LayerStats
	// EvalStats observes one Plan.Execute run (rows scanned, index
	// hits, semijoin work).
	EvalStats = obs.EvalStats
)

// Verdict values of Decide.
const (
	Yes     = core.Yes
	No      = core.No
	Unknown = core.Unknown
)

// Evaluation method tags accepted by CompilePlan.
const (
	MethodAuto        = core.MethodAuto
	MethodYannakakis  = core.MethodYannakakis
	MethodGuardedGame = core.MethodGuardedGame
	MethodEGDGame     = core.MethodEGDGame
	MethodGeneric     = core.MethodGeneric
)

// Dependency classes (Section 2 of the paper).
const (
	ClassFull          = deps.ClassFull
	ClassGuarded       = deps.ClassGuarded
	ClassLinear        = deps.ClassLinear
	ClassInclusion     = deps.ClassInclusion
	ClassNonRecursive  = deps.ClassNonRecursive
	ClassSticky        = deps.ClassSticky
	ClassWeaklyAcyc    = deps.ClassWeaklyAcyc
	ClassWeaklyGuarded = deps.ClassWeaklyGuarded
	ClassWeaklySticky  = deps.ClassWeaklySticky
	ClassKeys          = deps.ClassKeys
	ClassK2            = deps.ClassK2
	ClassFD            = deps.ClassFD
	ClassUnaryFD       = deps.ClassUnaryFD
)

// Const returns the constant named name.
func Const(name string) Term { return term.Const(name) }

// Var returns the variable named name.
func Var(name string) Term { return term.Var(name) }

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return instance.NewAtom(pred, args...) }

// NewInstance returns an empty instance.
func NewInstance() *Instance { return instance.New() }

// NewDatabase builds a database from ground atoms.
func NewDatabase(atoms ...Atom) (*Instance, error) { return instance.FromAtoms(atoms...) }

// ParseQuery parses a conjunctive query, e.g.
// "q(x,y) :- R(x,z), S(z,y), T('a',x).".
func ParseQuery(input string) (*CQ, error) { return cq.Parse(input) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(input string) *CQ { return cq.MustParse(input) }

// ParseUCQ parses one query per line into a union.
func ParseUCQ(input string) (*UCQ, error) { return cq.ParseUCQ(input) }

// ParseDependencies parses a dependency set, one per line:
// tgds "R(x,y) -> S(y,z)." and egds "R(x,y), R(x,z) -> y = z.".
func ParseDependencies(input string) (*Dependencies, error) { return deps.Parse(input) }

// ParseDatabase parses ground atoms like "R(a,b). S(c)." into a
// database; arguments are constants (quotes optional).
func ParseDatabase(input string) (*Instance, error) { return instance.Parse(input) }

// ParseAtoms parses ground atoms in the ParseDatabase syntax into a
// bare atom slice — the input format of Instance.ApplyDelta and
// Instance.NewOverlay batches. Unlike ParseDatabase, the empty input
// is fine (an empty batch side).
func ParseAtoms(input string) ([]Atom, error) { return instance.ParseAtoms(input) }

// ErrArityClash is wrapped by Instance.ApplyDelta and
// Instance.NewOverlay when a batch atom's arity contradicts the
// instance schema or another batch atom; match with errors.Is.
var ErrArityClash = instance.ErrArityClash

// FormatDatabase renders a database in the ground-atom syntax that
// ParseDatabase reads back (one "R(a,b)." statement per line). It
// fails on instances holding nulls or syntax-delimiter constants.
func FormatDatabase(db *Instance) (string, error) { return db.Dump() }

// MustParseDependencies is ParseDependencies that panics on error.
func MustParseDependencies(input string) *Dependencies { return deps.MustParse(input) }

// Decide determines whether q is semantically acyclic under the
// dependencies: is there an acyclic q' with q ≡Σ q'? A Yes result
// carries a verified witness.
func Decide(q *CQ, set *Dependencies, opt Options) (*Result, error) {
	return core.Decide(q, set, opt)
}

// DecideUCQ is the UCQ variant of Decide (§8.1).
func DecideUCQ(u *UCQ, set *Dependencies, opt Options) (*UCQResult, error) {
	return core.DecideUCQ(u, set, opt)
}

// Approximate computes an acyclic CQ maximally contained in q under
// the dependencies (§8.2); equivalent to q when q is semantically
// acyclic.
func Approximate(q *CQ, set *Dependencies, opt Options) (*Approximation, error) {
	return core.Approximate(q, set, opt)
}

// Evaluator evaluates a semantically acyclic query in O(|D|) per
// database after a one-time reformulation (Prop. 24): a Plan compiled
// with MethodYannakakis.
type Evaluator struct {
	// Query is the original query; Witness is its verified acyclic
	// equivalent under Σ, the query Evaluate actually runs.
	Query   *CQ
	Witness *CQ
	plan    *Plan
}

// NewEvaluator reformulates a semantically acyclic q once and then
// evaluates it in time linear in each database (Prop. 24). It fails
// when q is not (verifiably) semantically acyclic; callers can then
// fall back to Evaluate or to an approximation (§8.2).
func NewEvaluator(q *CQ, set *Dependencies, opt Options) (*Evaluator, error) {
	p, err := core.CompilePlan(q, set, opt, MethodYannakakis)
	if err != nil {
		return nil, err
	}
	return &Evaluator{Query: q, Witness: p.Witness, plan: p}, nil
}

// Evaluate computes q(D), in canonical order, for a database D ⊨ Σ by
// evaluating the acyclic witness with Yannakakis' algorithm.
func (e *Evaluator) Evaluate(db *Instance) ([][]Term, error) {
	ans, _, err := e.plan.Execute(db, EvalOptions{})
	return ans, err
}

// EvaluateBool reports whether q(D) is nonempty.
func (e *Evaluator) EvaluateBool(db *Instance) (bool, error) {
	ans, err := e.Evaluate(db)
	return len(ans) > 0, err
}

// CompilePlan compiles an evaluation plan for (q, Σ): the semantic-
// acyclicity decision and method selection happen once, Plan.Execute
// then runs per database. method is one of the Method constants or ""
// (auto).
func CompilePlan(q *CQ, set *Dependencies, opt Options, method string) (*Plan, error) {
	return core.CompilePlan(q, set, opt, method)
}

// EvaluateGuardedGame evaluates a semantically acyclic q over D ⊨ Σ
// for guarded Σ via the existential 1-cover game (Thm. 25), without
// computing a reformulation: a MethodGuardedGame plan run once. The
// game never reads Σ, so the premises (q semantically acyclic under a
// guarded Σ, D ⊨ Σ) are the caller's; violating them can only
// overapproximate. It fails when q is invalid.
func EvaluateGuardedGame(q *CQ, db *Instance) ([][]Term, error) {
	return evaluateOnce(q, nil, db, MethodGuardedGame)
}

// EvaluateEGDGame evaluates a semantically acyclic q over D ⊨ Σ for a
// pure egd set via chase-then-game (Section 7, closing remark): a
// MethodEGDGame plan run once.
func EvaluateEGDGame(q *CQ, set *Dependencies, db *Instance) ([][]Term, error) {
	return evaluateOnce(q, set, db, MethodEGDGame)
}

// evaluateOnce compiles a plan for (q, Σ) with the given method and
// executes it on db, returning the answers in canonical order.
func evaluateOnce(q *CQ, set *Dependencies, db *Instance, method string) ([][]Term, error) {
	p, err := core.CompilePlan(q, set, Options{}, method)
	if err != nil {
		return nil, err
	}
	ans, _, err := p.Execute(db, EvalOptions{})
	return ans, err
}

// IsAcyclic reports whether the query is acyclic (admits a join tree).
func IsAcyclic(q *CQ) bool { return hypergraph.IsAcyclic(q.Atoms) }

// TreewidthUpperBound bounds the treewidth of the query's Gaifman
// graph from above (min-fill heuristic); the measure Examples 2 and 5
// of the paper reason with.
func TreewidthUpperBound(q *CQ) int { return hypergraph.TreewidthUpperBound(q.Atoms) }

// JoinTree returns a join forest for the query's atoms, or ok=false
// when the query is cyclic.
func JoinTree(q *CQ) (*JoinForest, bool) { return hypergraph.GYO(q.Atoms) }

// Core returns the core (minimal equivalent) of q.
func Core(q *CQ) *CQ { return hom.Core(q) }

// Contains decides q ⊆Σ q' under the dependencies.
func Contains(q, qp *CQ, set *Dependencies, opt ContainmentOptions) (ContainmentDecision, error) {
	return containment.Contains(q, qp, set, opt)
}

// Equivalent decides q ≡Σ q' under the dependencies.
func Equivalent(q, qp *CQ, set *Dependencies, opt ContainmentOptions) (ContainmentDecision, error) {
	return containment.Equivalent(q, qp, set, opt)
}

// ContainsUCQ decides Q ⊆Σ Q' for unions of conjunctive queries.
func ContainsUCQ(q, qp *UCQ, set *Dependencies, opt ContainmentOptions) (ContainmentDecision, error) {
	return containment.ContainsUCQ(q, qp, set, opt)
}

// EquivalentUCQ decides Q ≡Σ Q' for unions of conjunctive queries.
func EquivalentUCQ(q, qp *UCQ, set *Dependencies, opt ContainmentOptions) (ContainmentDecision, error) {
	return containment.EquivalentUCQ(q, qp, set, opt)
}

// EvaluateUCQ computes Q(D) as the union of the disjuncts' answers,
// using the generic evaluator per disjunct, in canonical order without
// duplicates (the order every Plan returns).
func EvaluateUCQ(u *UCQ, db *Instance) [][]Term {
	var out [][]Term
	for _, d := range u.Disjuncts {
		out = append(out, hom.Evaluate(d, db)...)
	}
	slices.SortFunc(out, term.CompareTuples)
	return slices.CompactFunc(out, slices.Equal[[]Term])
}

// Chase chases a database with the dependencies.
func Chase(db *Instance, set *Dependencies, opt ChaseOptions) (*ChaseResult, error) {
	return chase.Run(db, set, opt)
}

// ChaseQuery chases a query per Lemma 1, returning also the frozen
// head tuple.
func ChaseQuery(q *CQ, set *Dependencies, opt ChaseOptions) (*ChaseResult, []Term, error) {
	return chase.Query(q, set, opt)
}

// Satisfies reports whether the database satisfies the dependencies.
func Satisfies(db *Instance, set *Dependencies) bool { return chase.Satisfies(db, set) }

// RewriteUCQ computes the UCQ rewriting of q under a tgd set
// (Definition 2; complete for non-recursive and sticky sets).
func RewriteUCQ(q *CQ, set *Dependencies, opt RewriteOptions) (*RewriteResult, error) {
	return rewrite.Rewrite(q, set, opt)
}

// Evaluate computes q(D) with the generic (NP-hard) backtracking
// evaluator; use EvaluateAcyclic or an Evaluator for tractable paths.
func Evaluate(q *CQ, db *Instance) [][]Term { return hom.Evaluate(q, db) }

// EvaluateAcyclic computes q(D) for an acyclic q with Yannakakis'
// linear-time algorithm.
func EvaluateAcyclic(q *CQ, db *Instance) ([][]Term, error) {
	return yannakakis.Evaluate(q, db)
}

// Classes returns every dependency class of the paper the set belongs to.
func Classes(set *Dependencies) []Class { return set.Classes() }

// Explain reconstructs a re-checkable certificate (both Lemma 1
// homomorphisms plus the witness's join tree) for a Yes decision.
func Explain(q *CQ, set *Dependencies, res *Result, opt Options) (*Certificate, error) {
	return core.Explain(q, set, res, opt)
}

// ContainmentViaSemAc realizes Proposition 5 of the paper: for
// body-connected tgds and Boolean connected queries with q acyclic and
// q' not semantically acyclic under Σ, q ⊆Σ q' iff q ∧ q' is
// semantically acyclic under Σ. See internal/core for the premise
// contract.
func ContainmentViaSemAc(q, qp *CQ, set *Dependencies, opt Options) (*Result, error) {
	return core.ContainmentViaSemAc(q, qp, set, opt)
}
