package rewrite

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
	"semacyclic/internal/term"
)

// rewriteRef is the kernel Rewrite replaced, kept verbatim as the
// reference: every (disjunct, tgd) step renames the tgd apart with
// term.FreshVar, freezes the disjunct's answer variables and collects
// its variables again, and every piece unification builds a fresh
// substitution, atom list and query, which hom.Core then copies and
// CanonicalKey keys. Its fresh names share the user's namespace, so it
// is run only on queries without variables named v<N>.
func rewriteRef(q *cq.CQ, set *deps.Set, opt Options) (*Result, error) {
	if len(set.EGDs) > 0 {
		return nil, fmt.Errorf("rewrite: egds are not UCQ rewritable")
	}
	opt = opt.withDefaults()

	start := hom.Core(q.DedupAtoms())
	seen := map[string]*cq.CQ{start.CanonicalKey(): start}
	frontier := []*cq.CQ{start}
	order := []*cq.CQ{start}
	complete := true
	rounds := 0

	for len(frontier) > 0 && rounds < opt.MaxRounds {
		rounds++
		var next []*cq.CQ
		for _, p := range frontier {
			for _, t := range set.TGDs {
				if opt.cancelled() {
					return nil, ErrCancelled
				}
				for _, r := range rewriteStepRef(p, t) {
					if opt.MaxAtomsPerCQ > 0 && r.Size() > opt.MaxAtomsPerCQ {
						complete = false
						continue
					}
					// Core-reduce: each disjunct is replaced by its
					// (equivalent) core. Besides shrinking the UCQ this
					// is what makes the closure terminate on recursive
					// sticky sets, where raw piece-rewriting keeps
					// producing redundant inflations of earlier
					// disjuncts.
					r = hom.Core(r)
					k := r.CanonicalKey()
					if _, ok := seen[k]; ok {
						continue
					}
					if len(seen) >= opt.MaxDisjuncts {
						complete = false
						continue
					}
					seen[k] = r
					next = append(next, r)
					order = append(order, r)
				}
			}
		}
		frontier = next
	}
	if len(frontier) > 0 {
		complete = false
	}
	ucq, err := cq.NewUCQ(order...)
	if err != nil {
		return nil, fmt.Errorf("rewrite: internal: %w", err)
	}
	return &Result{UCQ: ucq, Complete: complete, Rounds: rounds}, nil
}

// rewriteStepRef returns every sound one-step rewriting of p with tgd t.
func rewriteStepRef(p *cq.CQ, t *deps.TGD) []*cq.CQ {
	t = renameApartRef(t)

	// Freeze answer variables: rigid during unification.
	freeze := term.NewSubst()
	thaw := term.NewSubst()
	for _, x := range p.Free {
		fc := cq.FrozenConst(x)
		freeze[x] = fc
		thaw[fc] = x
	}
	frozen := p.ApplySubst(freeze)

	existential := t.ExistentialVars()
	frontier := t.FrontierVars()
	pVars := varSetRef(frozen.Atoms)

	var out []*cq.CQ

	// Enumerate assignments: each atom of p is either kept or mapped to
	// a head atom of t with matching predicate and arity.
	assign := make([]int, len(frozen.Atoms)) // -1 = keep, else head index
	var rec func(i int, any bool)
	rec = func(i int, any bool) {
		if i == len(frozen.Atoms) {
			if !any {
				return
			}
			if r := applyPieceRef(frozen, t, assign, existential, frontier, pVars, thaw, p.Free); r != nil {
				out = append(out, r)
			}
			return
		}
		assign[i] = -1
		rec(i+1, any)
		for j, h := range t.Head {
			if h.Pred == frozen.Atoms[i].Pred && len(h.Args) == len(frozen.Atoms[i].Args) {
				assign[i] = j
				rec(i+1, true)
			}
		}
		assign[i] = -1
	}
	rec(0, false)
	return out
}

// applyPieceRef attempts the piece unification described by assign and, on
// success, returns the rewritten query.
func applyPieceRef(frozen *cq.CQ, t *deps.TGD, assign []int,
	existential, frontierVars []term.Term, pVars map[term.Term]bool,
	thaw term.Subst, free []term.Term) *cq.CQ {

	// Collect the unification problem.
	var left, right []term.Term
	inS := make([]bool, len(frozen.Atoms))
	for i, a := range frozen.Atoms {
		if assign[i] < 0 {
			continue
		}
		inS[i] = true
		left = append(left, a.Args...)
		right = append(right, t.Head[assign[i]].Args...)
	}
	mu, err := term.Unify(left, right, nil)
	if err != nil {
		return nil
	}

	// Variables of p occurring outside S (they must keep their values,
	// so they may not be equated with an existential variable).
	outside := make(map[term.Term]bool)
	for i, a := range frozen.Atoms {
		if inS[i] {
			continue
		}
		for _, v := range a.Vars() {
			outside[v] = true
		}
	}

	// Piece conditions on each existential variable z of t: its
	// equivalence class must contain nothing but z itself and variables
	// of p that occur only inside S.
	for _, z := range existential {
		rz := mu.Resolve(z)
		if rz.IsConst() {
			return nil // null cannot equal a constant (incl. frozen answer vars)
		}
		if rz != z {
			// rz is a variable: it must be an S-only p-variable, not a
			// frontier variable, not another existential.
			if !pVars[rz] || outside[rz] {
				return nil
			}
		}
		// No two distinct existential variables may coincide, and no
		// frontier variable may land in z's class.
		for _, z2 := range existential {
			if z2 != z && mu.Resolve(z2) == rz {
				return nil
			}
		}
		for _, f := range frontierVars {
			if mu.Resolve(f) == rz {
				return nil
			}
		}
		// No outside-S p-variable may resolve into z's class.
		//semalint:allow detmap(existence check; any hit rejects identically)
		for v := range outside {
			if mu.Resolve(v) == rz {
				return nil
			}
		}
	}

	// Build the rewriting: μ(body(t)) ∪ μ(p \ S), then thaw answer vars.
	var atoms []instance.Atom
	for _, b := range t.Body {
		atoms = append(atoms, b.Apply(mu).Apply(thaw))
	}
	for i, a := range frozen.Atoms {
		if !inS[i] {
			atoms = append(atoms, a.Apply(mu).Apply(thaw))
		}
	}
	r := &cq.CQ{Name: frozen.Name, Free: append([]term.Term(nil), free...), Atoms: atoms}
	r = r.DedupAtoms()
	if err := r.Validate(); err != nil {
		return nil // defensive: a free variable vanished (cannot happen)
	}
	return r
}

func varSetRef(atoms []instance.Atom) map[term.Term]bool {
	s := make(map[term.Term]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			s[v] = true
		}
	}
	return s
}

// renameApartRef is the deps.TGD.RenameApart the reference kernel
// called: every body and existential variable takes a term.FreshVar.
func renameApartRef(t *deps.TGD) *deps.TGD {
	s := term.NewSubst()
	for _, v := range t.BodyVars() {
		s[v] = term.FreshVar()
	}
	for _, v := range t.ExistentialVars() {
		s[v] = term.FreshVar()
	}
	apply := func(atoms []instance.Atom) []instance.Atom {
		out := make([]instance.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = a.Apply(s)
		}
		return out
	}
	r, err := deps.NewTGD(apply(t.Body), apply(t.Head))
	if err != nil {
		panic(err)
	}
	return r
}

// sameRewriting reports how got differs from want, the reference
// kernel's result: the canonical key of every disjunct in order,
// Complete and Rounds must agree. It returns "" when they do.
func sameRewriting(got, want *Result) string {
	if got.Complete != want.Complete || got.Rounds != want.Rounds {
		return fmt.Sprintf("complete %v rounds %d, reference complete %v rounds %d", got.Complete, got.Rounds, want.Complete, want.Rounds)
	}
	g, w := got.UCQ.Disjuncts, want.UCQ.Disjuncts
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) {
			return fmt.Sprintf("%d disjuncts, reference %d:\n%s\nreference:\n%s", len(g), len(w), got.UCQ, want.UCQ)
		}
		if g[i].CanonicalKey() != w[i].CanonicalKey() {
			return fmt.Sprintf("disjunct %d is %s, reference %s", i, g[i], w[i])
		}
	}
	return ""
}

// checkReference runs Rewrite and the reference kernel on q, fails the
// test on the first difference, and returns Rewrite's result.
func checkReference(t *testing.T, q *cq.CQ, set *deps.Set, opt Options) *Result {
	t.Helper()
	got, err := Rewrite(q, set, opt)
	if err != nil {
		t.Fatalf("Rewrite(%s): %v", q, err)
	}
	want, err := rewriteRef(q, set, opt)
	if err != nil {
		t.Fatalf("reference(%s): %v", q, err)
	}
	if diff := sameRewriting(got, want); diff != "" {
		t.Fatalf("Rewrite(%s) under\n%s\nwith %+v: %s", q, set, opt, diff)
	}
	return got
}

// layerCandidates returns the candidates layers 2 and 3 of a decision
// on q examine at budget 100, when no candidate is a witness (the
// decide-cold templates this serves end in "unknown budget"): every
// state of the quotient BFS, whose space is smaller than the budget,
// and the chase subsets searchChaseSubsets grows within its budgets.
// The decisions verify the acyclic ones among them.
func layerCandidates(q *cq.CQ, set *deps.Set) (quotients, subsets []*cq.CQ) {
	start := q.DedupAtoms()
	seen := map[string]bool{start.CanonicalKey(): true}
	for queue := []*cq.CQ{start}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		quotients = append(quotients, cur)
		var moves []*cq.CQ
		for i := range cur.Atoms {
			if len(cur.Atoms) > 1 {
				drop := &cq.CQ{Name: cur.Name, Free: cur.Free, Atoms: append(append([]instance.Atom(nil), cur.Atoms[:i]...), cur.Atoms[i+1:]...)}
				if drop.Validate() == nil {
					moves = append(moves, drop)
				}
			}
		}
		for _, x := range cur.Vars() {
			for _, y := range cur.ExistentialVars() {
				if x != y {
					moves = append(moves, cur.ApplySubst(term.Subst{y: x}).DedupAtoms())
				}
			}
		}
		for _, m := range moves {
			if k := m.CanonicalKey(); !seen[k] {
				seen[k] = true
				queue = append(queue, m)
			}
		}
	}

	const budget = 100
	res, frozen, err := chase.Query(q, set, chase.Options{MaxDepth: q.Size() + len(set.TGDs) + 2, MaxSteps: 2000})
	if err != nil {
		panic(err)
	}
	atoms := cq.ThawAtoms(res.Instance.Atoms())
	free := make([]term.Term, len(frozen))
	for i, f := range frozen {
		free[i] = cq.Thaw(f)
	}
	bound := 2 * HeightBound(q, set)
	keys := make(map[string]bool)
	steps := 0
	var grow func(sel []instance.Atom, used []bool) bool
	grow = func(sel []instance.Atom, used []bool) bool {
		steps++
		if len(subsets) >= budget || steps >= 50*budget {
			return false
		}
		c := &cq.CQ{Name: q.Name, Free: free, Atoms: sel}
		if len(sel) > 0 && c.Validate() == nil {
			if k := c.CanonicalKey(); !keys[k] {
				keys[k] = true
				subsets = append(subsets, c.Clone())
			}
		}
		if len(sel) >= bound {
			return false
		}
		for i, a := range atoms {
			if used[i] || len(sel) > 0 && !sharesVarRef(a, sel) {
				continue
			}
			used[i] = true
			grow(append(sel, a), used)
			used[i] = false
		}
		return false
	}
	grow(nil, make([]bool, len(atoms)))
	return quotients, subsets
}

func sharesVarRef(a instance.Atom, sel []instance.Atom) bool {
	for _, t := range a.Vars() {
		for _, b := range sel {
			if slices.Contains(b.Args, t) {
				return true
			}
		}
	}
	return false
}

// TestRewriteMatchesReference: the scratch kernel produces the
// reference kernel's closure — the same disjuncts by canonical key, in
// the same order, with the same Complete and Rounds — on the sticky and
// non-recursive decide-cold templates and every layer-2/3 candidate of
// their decisions, on random sticky and non-recursive workloads, on
// Example 3, and under both truncations with a cancelled run between
// them. The queries never name a variable v<N>, which the reference's
// fresh tgd variables would capture.
func TestRewriteMatchesReference(t *testing.T) {
	const sticky = "US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y)."
	templates := []struct {
		q, set             string
		quotients, subsets int // the layer counts in testdata/decide_cold.golden
	}{
		{"q :- S0(x,y), S0(y,z), S0(z,x).", sticky, 11, 4},
		{"q :- S0(x,y), S1(y,z), S0(z,x).", sticky, 20, 8},
		{"q :- A(x,y), B(y,z), C(z,x).", "A(x,y) -> B(y,z).\nB(x,y) -> C(y,w).", 26, 7},
	}
	checked := 0
	for _, tpl := range templates {
		q, set := cq.MustParse(tpl.q), deps.MustParse(tpl.set)
		quotients, subsets := layerCandidates(q, set)
		if len(quotients) != tpl.quotients || len(subsets) != tpl.subsets {
			t.Fatalf("%s: %d quotients and %d chase subsets, the decision examines %d and %d", q, len(quotients), len(subsets), tpl.quotients, tpl.subsets)
		}
		for _, c := range append(quotients, subsets...) {
			checkReference(t, c, set, Options{})
			checked++
		}
	}

	r := rand.New(rand.NewSource(28))
	for _, class := range []string{"sticky", "nonrecursive"} {
		rewritten := 0
		for i := 0; i < 200; i++ {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 1+r.Intn(4), 1, 3)
			if len(checkReference(t, q, set, Options{MaxDisjuncts: 500}).UCQ.Disjuncts) > 1 {
				rewritten++
			}
			checked++
		}
		if rewritten < 50 {
			t.Fatalf("only %d of 200 %s workloads have a rewriting step; the generator lost its interaction", rewritten, class)
		}
		t.Logf("%s: %d of 200 queries rewrite to more than one disjunct", class, rewritten)
	}

	for n := 1; n <= 3; n++ {
		set, q := gen.Example3Set(n)
		checkReference(t, q, set, Options{})
		checked++
	}

	set, q := gen.Example3Set(3)
	if checkReference(t, q, set, Options{MaxDisjuncts: 7}).Complete {
		t.Fatal("Example 3 (n=3) within 7 disjuncts reported complete")
	}
	closed := make(chan struct{})
	close(closed)
	if _, err := Rewrite(q, set, Options{Cancel: closed}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run: err = %v, want ErrCancelled", err)
	}
	if checkReference(t, q, set, Options{MaxAtomsPerCQ: 3}).Complete {
		t.Fatal("Example 3 (n=3) within 3 atoms per disjunct reported complete")
	}
	checked += 2
	t.Logf("%d rewritings agree with the reference", checked)
}
