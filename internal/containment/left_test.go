package containment

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/rewrite"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// containsRef is the per-call procedure Contains ran before its left
// side was hoisted, kept as the reference for PreparedLeft: every call
// selects the method, chases q in a fresh chase.Runner or freezes it
// anew, and rewrites q' with a fresh rewrite.Rewrite. It tries no plain
// containment first.
func containsRef(q, qp *cq.CQ, set *deps.Set, opt Options) (Decision, error) {
	if len(q.Free) != len(qp.Free) {
		return Decision{Holds: false, Definitive: true, Method: MethodPlain}, nil
	}
	m := SelectMethod(set, opt)
	switch m {
	case MethodPlain:
		return Decision{Holds: hom.Contained(q, qp), Definitive: true, Method: MethodPlain}, nil
	case MethodChase, MethodBounded:
		copt := opt.Chase
		if m == MethodBounded && copt.MaxDepth <= 0 {
			copt.MaxDepth = defaultGuardedDepth(qp, set)
		}
		res, frozen, err := new(chase.Runner).Query(q, set, copt)
		if errors.Is(err, chase.ErrFailed) {
			return Decision{Holds: true, Definitive: true, Method: m}, nil
		}
		if err != nil {
			return Decision{}, err
		}
		holds := hom.HasTuple(qp, res.Instance, frozen)
		return Decision{Holds: holds, Definitive: holds || res.Complete, Method: m}, nil
	case MethodRewrite:
		rw, err := rewrite.Rewrite(qp, set, opt.Rewrite)
		if err != nil {
			return Decision{}, err
		}
		db, frozen := q.Freeze()
		for _, d := range rw.UCQ.Disjuncts {
			if hom.HasTuple(d, db, frozen) {
				return Decision{Holds: true, Definitive: true, Method: MethodRewrite}, nil
			}
		}
		return Decision{Holds: false, Definitive: rw.Complete, Method: MethodRewrite}, nil
	default:
		return Decision{}, fmt.Errorf("containment: unknown method %q", m)
	}
}

// rightSides returns right-hand sides for q ⊆Σ w: q itself, its
// one-atom drops and one-merge quotients, the connected one- to
// three-atom subsets of a bounded chase(q,Σ) with q's head (which hold
// under Σ without holding plainly), and queries drawn over the same
// class's predicates, some of another arity.
func rightSides(r *rand.Rand, q *cq.CQ, set *deps.Set, class string) []*cq.CQ {
	out := []*cq.CQ{q}
	valid := func(w *cq.CQ) {
		if w.Validate() == nil {
			out = append(out, w)
		}
	}
	for i := range q.Atoms {
		valid(&cq.CQ{Name: q.Name, Free: q.Free, Atoms: slices.Delete(slices.Clone(q.Atoms), i, i+1)})
	}
	vars := q.Vars()
	for i, x := range vars {
		for _, y := range vars[i+1:] {
			if !slices.Contains(q.Free, y) {
				valid(q.ApplySubst(term.Subst{y: x}).DedupAtoms())
			}
		}
	}
	res, frozen, err := chase.Query(q, set, chase.Options{MaxDepth: q.Size() + len(set.TGDs) + 2, MaxSteps: 2000})
	if err == nil {
		atoms := cq.ThawAtoms(res.Instance.Atoms())
		free := make([]term.Term, len(frozen))
		for i, f := range frozen {
			free[i] = cq.Thaw(f)
		}
		subsets := 0
		var grow func(sel []instance.Atom, from int)
		grow = func(sel []instance.Atom, from int) {
			if len(sel) > 0 {
				valid(&cq.CQ{Name: q.Name, Free: free, Atoms: slices.Clone(sel)})
				subsets++
			}
			if len(sel) == 3 {
				return
			}
			for i := from; i < len(atoms) && subsets < 40; i++ {
				if len(sel) == 0 || slices.ContainsFunc(atoms[i].Vars(), func(v term.Term) bool {
					return slices.ContainsFunc(sel, func(b instance.Atom) bool { return slices.Contains(b.Args, v) })
				}) {
					grow(append(sel, atoms[i]), i+1)
				}
			}
		}
		grow(nil, 0)
	}
	for range 6 {
		w, _, _ := gen.RandomWorkload(r, class, 1, 1+r.Intn(4), 1, 3)
		out = append(out, w)
	}
	return out
}

// checkLeft checks every right-hand side in one PreparedLeft for q,
// then each again in reverse order, so every check but the first runs
// in the state earlier ones left, and fails the test where the checker
// disagrees with containsRef.
func checkLeft(t *testing.T, q *cq.CQ, set *deps.Set, opt Options, rights []*cq.CQ) {
	t.Helper()
	l := PrepareLeft(q, set, opt)
	twice := slices.Clone(rights)
	for i := len(rights) - 1; i >= 0; i-- {
		twice = append(twice, rights[i])
	}
	for _, w := range twice {
		got, gotErr := l.Check(w, nil)
		want, wantErr := containsRef(q, w, set, opt)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("q = %s under\n%s\nwith method %q: Check(%s) = %+v, %v; reference %+v, %v",
				q, set, opt.Method, w, got, gotErr, want, wantErr)
		}
	}
}

// TestPreparedLeftMatchesReference: one PreparedLeft reused over many
// right-hand sides answers each exactly as the per-call reference does —
// Holds, Definitive, Method and error — for random workloads of every
// class under the selected method, a forced bounded chase over
// candidates of several sizes and a forced rewriting (which fails on
// egds), for a guarded set whose witnesses need the depth budget of
// their own size, for an egd set whose chase fails, and for a method
// that fails.
func TestPreparedLeftMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	workloads := 25
	if testutil.RaceEnabled || testing.Short() {
		workloads = 6 // the reference gate runs the full set without -race
	}
	checked := 0
	for _, class := range gen.WorkloadClasses {
		for range workloads {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 2+r.Intn(3), 1, 3)
			rights := rightSides(r, q, set, class)
			opts := []Options{{}, {Method: MethodBounded}}
			if set.PureTGDs() && (set.IsSticky() || set.IsNonRecursive()) {
				// Forced where the rewriting terminates, for checks that
				// hold through a disjunct other than the first.
				opts = append(opts, Options{Method: MethodRewrite})
			}
			for _, opt := range opts {
				checkLeft(t, q, set, opt, rights)
			}
			checked += 2 * len(opts) * len(rights)
		}
	}

	// Under this set a chain of k Parent atoms from x lies at depth
	// 2k-1, and a k-atom right side gets depth budget 4k+2: the 4- and
	// 5-chains need their own chase, deeper than the 1-chain's.
	guarded := deps.MustParse("Person(x) -> Parent(x,y).\nParent(x,y) -> Person(y).")
	var chains []*cq.CQ
	for _, k := range []int{1, 2, 4, 5, 3, 1, 5} {
		body := ""
		for i := range k {
			body += fmt.Sprintf(", Parent(y%d,y%d)", i, i+1)
		}
		chains = append(chains, cq.MustParse("q(y0) :- "+body[2:]+"."))
	}
	chains = append(chains, cq.MustParse("q(x) :- Dead(x)."), cq.MustParse("q(x) :- Person(x), Dead(x)."))
	person := cq.MustParse("q(x) :- Person(x).")
	checkLeft(t, person, guarded, Options{}, chains)
	checkLeft(t, person, guarded, Options{Method: MethodBounded}, chains)

	keys := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	unsat := cq.MustParse("q(u) :- R(u,'a'), R(u,'b'), T(u).")
	others := []*cq.CQ{
		cq.MustParse("q(u) :- T(u)."),
		cq.MustParse("q(u) :- S(u)."),
		cq.MustParse("q(u) :- R(u,v), S(v)."),
		cq.MustParse("q :- S(u)."),
	}
	for _, m := range []Method{"", MethodChase, MethodBounded, MethodRewrite, MethodPlain, "nope"} {
		checkLeft(t, unsat, keys, Options{Method: m}, others)
	}
	checked += 4*len(chains) + 12*len(others)
	t.Logf("%d checks agree with the reference", checked)
}
