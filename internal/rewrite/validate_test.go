package rewrite

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// rawRewriting returns the rewriting of the step w has unified, built
// as the replaced kernel built it — μ(body(t)) ∪ μ(p∖S) with the answer
// variables thawed — and with every tgd variable it still holds renamed
// out of the reserved namespace to τ<j>, a name no query holds.
func rawRewriting(w *Rewriter) *cq.CQ {
	var atoms []instance.Atom
	add := func(a instance.Atom) {
		args := make([]term.Term, len(a.Args))
		for j, x := range a.Args {
			x = w.mu.Resolve(x)
			if i := slices.Index(w.frozenFree, x); i >= 0 {
				x = w.free[i]
			} else if x.IsVar() && strings.HasPrefix(x.Name, term.FrozenPrefix) {
				x = term.Var("τ" + strings.TrimPrefix(x.Name, term.FrozenPrefix))
			}
			args[j] = x
		}
		atoms = append(atoms, instance.Atom{Pred: a.Pred, Args: args})
	}
	for _, b := range w.t.body {
		add(b)
	}
	for i, a := range w.p {
		if w.assign[i] < 0 {
			add(a)
		}
	}
	return &cq.CQ{Name: w.name, Free: w.free, Atoms: atoms}
}

// renamedAtoms returns the atoms build left in w.atoms with the tgd
// variables renamed as rawRewriting renames them.
func renamedAtoms(w *Rewriter) []instance.Atom {
	out := make([]instance.Atom, len(w.atoms))
	for i, a := range w.atoms {
		args := make([]term.Term, len(a.Args))
		for j, x := range a.Args {
			if x.IsVar() && strings.HasPrefix(x.Name, term.FrozenPrefix) {
				x = term.Var("τ" + strings.TrimPrefix(x.Name, term.FrozenPrefix))
			}
			args[j] = x
		}
		out[i] = instance.Atom{Pred: a.Pred, Args: args}
	}
	return out
}

// eachPiece calls f after every piece unification that meets the piece
// conditions, over every assignment of p's atoms to t's head atoms, as
// enumerate does.
func eachPiece(w *Rewriter, i int, any bool, f func()) {
	if i == len(w.p) {
		if any && w.unifyPiece() {
			f()
		}
		return
	}
	w.assign[i] = -1
	eachPiece(w, i+1, any, f)
	for j, h := range w.t.head {
		if h.Pred == w.p[i].Pred && len(h.Args) == len(w.p[i].Args) {
			w.assign[i] = j
			eachPiece(w, i+1, true, f)
		}
	}
	w.assign[i] = -1
}

// TestRewriteScanMatchesValidate: the scan applyPiece runs in place of
// CQ.Validate (freeOK, then build's appendImage and coversFree) accepts
// a rewriting exactly when Validate accepts the renamed raw rewriting,
// and then builds that rewriting's atoms without duplicates. It runs on
// every step of the closure of random sticky and non-recursive
// workloads and of hand-built inputs for each rejection: a predicate at
// a second arity (a valid q and Σ that disagree), and queries Validate
// rejects, which reach Rewrite only unvalidated — a null, a stray
// frozen constant, an answer variable missing from the body, a repeated
// answer variable and a constant in the head.
func TestRewriteScanMatchesValidate(t *testing.T) {
	x, y, u := term.Var("x"), term.Var("y"), term.Var("u")
	atom := func(p string, args ...term.Term) instance.Atom { return instance.Atom{Pred: p, Args: args} }
	unary := deps.MustParse("T(x) -> S(x).")
	type input struct {
		q      *cq.CQ
		set    *deps.Set
		reject string // the rejection the input must reach, if any
	}
	inputs := []input{
		{cq.MustParse("q :- R(u,v), S(v)."), deps.MustParse("R(x,y,z) -> S(x)."), "second arity"},
		{&cq.CQ{Name: "q", Atoms: []instance.Atom{atom("R", x, term.NullTerm("n")), atom("S", x)}}, unary, "null"},
		{&cq.CQ{Name: "q", Atoms: []instance.Atom{atom("R", x, term.Const(term.FrozenPrefix+"z")), atom("S", x)}}, unary, "stray frozen constant"},
		{&cq.CQ{Name: "q", Free: []term.Term{y}, Atoms: []instance.Atom{atom("S", x)}}, unary, "uncovered answer variable"},
		{&cq.CQ{Name: "q", Free: []term.Term{x, x}, Atoms: []instance.Atom{atom("S", x), atom("R", x, u)}}, unary, "repeated answer variable"},
		{&cq.CQ{Name: "q", Free: []term.Term{term.Const("a")}, Atoms: []instance.Atom{atom("S", x)}}, unary, "constant in the head"},
	}
	r := rand.New(rand.NewSource(28))
	for _, class := range []string{"sticky", "nonrecursive"} {
		for range 150 {
			q, set, _ := gen.RandomWorkload(r, class, 1+r.Intn(3), 1+r.Intn(4), 1, 3)
			inputs = append(inputs, input{q: q, set: set})
		}
	}

	accepted, rejected := 0, 0
	for _, in := range inputs {
		res, err := Rewrite(in.q, in.set, Options{MaxDisjuncts: 200})
		if err != nil {
			t.Fatalf("Rewrite(%s): %v", in.q, err)
		}
		w, err := NewRewriter(in.set)
		if err != nil {
			t.Fatal(err)
		}
		w.reset(in.q, Options{}.withDefaults())
		reached := false
		for _, p := range res.UCQ.Disjuncts {
			w.load(p)
			for i := range w.tgds {
				w.t = &w.tgds[i]
				eachPiece(w, 0, false, func() {
					raw := rawRewriting(w)
					want := raw.Validate() == nil
					got := w.freeOK && w.build()
					if got != want {
						t.Fatalf("step of %s under %s: scan accepts %v, Validate accepts %v (%v) the rewriting %s", p, in.set, got, want, raw.Validate(), raw)
					}
					if !got {
						rejected++
						reached = true
						return
					}
					accepted++
					if dedup := raw.DedupAtoms(); !slices.EqualFunc(renamedAtoms(w), dedup.Atoms, instance.Atom.Equal) {
						t.Fatalf("step of %s under %s built %v, the rewriting is %s", p, in.set, w.atoms, dedup)
					}
				})
			}
		}
		if in.reject != "" && !reached {
			t.Errorf("%s under %s: no step reaches the rejection of a %s", in.q, in.set, in.reject)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d steps accepted and %d rejected; the gate needs both", accepted, rejected)
	}
	t.Logf("%d steps accepted and %d rejected by both", accepted, rejected)
}
