package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/game"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// The references below are the two game enumerators that game.Evaluate
// replaced, kept verbatim apart from sharing the recursion: the guarded
// one drew each free variable's candidates from the positions where it
// occurs in q, the egd one (egdGameAnswers with candidateValues) from
// the positions where the frozen head term occurs in the chased pattern,
// forcing a head coordinate the chase equated with a genuine constant
// to that constant.

// refGuardedGame is the former guarded-game enumerator over q's atoms.
func refGuardedGame(q *cq.CQ, db *instance.Instance) ([][]term.Term, error) {
	if len(q.Free) == 0 {
		return refBoolean(q.Atoms, db)
	}
	cand := make([][]term.Term, len(q.Free))
	for i, x := range q.Free {
		seen := make(map[term.Term]bool)
		for _, a := range q.Atoms {
			for pos, t := range a.Args {
				if t != x {
					continue
				}
				for _, fact := range db.ByPred(a.Pred) {
					if pos < len(fact.Args) && !seen[fact.Args[pos]] {
						seen[fact.Args[pos]] = true
						cand[i] = append(cand[i], fact.Args[pos])
					}
				}
			}
		}
	}
	return refEnumerate(q.Atoms, q.Free, cand, db)
}

// refEGDGame is the former egd-game enumerator over a pre-chased
// pattern; a nil pattern (failing chase) is the empty answer set.
func refEGDGame(q *cq.CQ, pattern []instance.Atom, frozen []term.Term, db *instance.Instance) ([][]term.Term, error) {
	if pattern == nil {
		return nil, nil
	}
	if len(q.Free) == 0 {
		return refBoolean(pattern, db)
	}
	return refEnumerate(pattern, frozen, refCandidateValues(q, pattern, frozen, db), db)
}

// refCandidateValues is the former candidateValues.
func refCandidateValues(q *cq.CQ, pattern []instance.Atom, frozen []term.Term, db *instance.Instance) [][]term.Term {
	cand := make([][]term.Term, len(q.Free))
	for i, f := range frozen {
		if f.IsConst() && !cq.IsFrozenConst(f) {
			cand[i] = []term.Term{f}
			continue
		}
		seen := make(map[term.Term]bool)
		for _, a := range pattern {
			for p, t := range a.Args {
				if t != f {
					continue
				}
				for _, fact := range db.ByPred(a.Pred) {
					if p < len(fact.Args) && !seen[fact.Args[p]] {
						seen[fact.Args[p]] = true
						cand[i] = append(cand[i], fact.Args[p])
					}
				}
			}
		}
	}
	return cand
}

// refBoolean is the former Boolean branch: {()} iff the unpinned game
// holds.
func refBoolean(pattern []instance.Atom, db *instance.Instance) ([][]term.Term, error) {
	ok, err := game.Covers(pattern, nil, db, nil, game.Options{})
	if err != nil || !ok {
		return nil, err
	}
	return [][]term.Term{{}}, nil
}

// refEnumerate plays one game per tuple of the candidate product.
func refEnumerate(pattern []instance.Atom, ptuple []term.Term, cand [][]term.Term, db *instance.Instance) ([][]term.Term, error) {
	var out [][]term.Term
	tuple := make([]term.Term, len(ptuple))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(ptuple) {
			ok, err := game.Covers(pattern, ptuple, db, tuple, game.Options{})
			if err != nil {
				return err
			}
			if ok {
				out = append(out, append([]term.Term(nil), tuple...))
			}
			return nil
		}
		for _, v := range cand[i] {
			tuple[i] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

var gamePreds = []struct {
	name  string
	arity int
}{{"E", 2}, {"P", 1}, {"T", 3}}

// randomGameAtoms draws n atoms over E/2, P/1 and T/3 with variables
// from the first nvars of x, y, z, w and, one argument in constOdds,
// the constant a or b.
func randomGameAtoms(r *rand.Rand, n, nvars, constOdds int) []instance.Atom {
	vars := []term.Term{term.Var("x"), term.Var("y"), term.Var("z"), term.Var("w")}[:nvars]
	consts := []term.Term{term.Const("a"), term.Const("b")}
	atoms := make([]instance.Atom, n)
	for k := range atoms {
		p := gamePreds[r.Intn(len(gamePreds))]
		args := make([]term.Term, p.arity)
		for i := range args {
			if r.Intn(constOdds) == 0 {
				args[i] = consts[r.Intn(len(consts))]
			} else {
				args[i] = vars[r.Intn(len(vars))]
			}
		}
		atoms[k] = instance.NewAtom(p.name, args...)
	}
	return atoms
}

// bodyVars lists the variables of atoms in first-occurrence order.
func bodyVars(atoms []instance.Atom) []term.Term {
	var out []term.Term
	seen := make(map[term.Term]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// randomGameDB draws 2–11 facts over the query predicates and the
// constants a–d, so query constants are sometimes present.
func randomGameDB(r *rand.Rand) *instance.Instance {
	consts := []string{"a", "b", "c", "d"}
	db := instance.New()
	for n := 2 + r.Intn(10); n > 0; n-- {
		p := gamePreds[r.Intn(len(gamePreds))]
		args := make([]term.Term, p.arity)
		for i := range args {
			args[i] = term.Const(consts[r.Intn(len(consts))])
		}
		db.Add(instance.NewAtom(p.name, args...))
	}
	return db
}

func sameAnswerSet(a, b [][]term.Term) bool {
	return fmt.Sprintf("%q", canonicalizeAnswers(a)) == fmt.Sprintf("%q", canonicalizeAnswers(b))
}

// TestGameEvaluateMatchesReference: game.Evaluate, the one enumerator
// both game methods run, returns the answer set of the enumerator each
// method ran before — the guarded game over (q.Atoms, q.Free), the egd
// game over the chased pattern and its frozen head — and so does the
// Plan wrapping it. The inputs cover Boolean queries, repeated free
// variables (given directly, or made by egd merges), head coordinates
// the egd chase equated with a genuine constant, and failing chases.
func TestGameEvaluateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var boolean, repeated int
	for trial := 0; trial < 2000; trial++ {
		q := &cq.CQ{Name: "q", Atoms: randomGameAtoms(r, 1+r.Intn(4), 4, 6)}
		if vars := bodyVars(q.Atoms); len(vars) > 0 {
			for n := r.Intn(4); n > 0; n-- {
				q.Free = append(q.Free, vars[r.Intn(len(vars))])
			}
		}
		db := randomGameDB(r)
		want, err := refGuardedGame(q, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := game.Evaluate(q.Atoms, q.Free, db, game.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(got, want) {
			t.Fatalf("guarded trial %d: q=%s db=%s\n got %q\nwant %q", trial, q, db, got, want)
		}
		if len(q.Free) == 0 {
			boolean++
		}
		if q.Validate() != nil {
			repeated++ // a repeated free variable; no Plan takes it
			continue
		}
		p, err := CompilePlan(q, &deps.Set{}, Options{}, MethodGuardedGame)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(ans, want) {
			t.Fatalf("guarded plan trial %d: q=%s db=%s\n got %q\nwant %q", trial, q, db, ans, want)
		}
	}
	if boolean < 200 || repeated < 200 {
		t.Fatalf("guarded workload drifted: %d Boolean, %d repeated-free-variable queries", boolean, repeated)
	}

	egds := []string{
		"E(x,y), E(x,z) -> y = z.",
		"E(x,y), E(z,y) -> x = z.",
		"T(x,y,u), T(x,z,v) -> y = z.",
		"T(x,y,u), T(x,y,v) -> u = v.",
		"E(x,y), T(x,z,u) -> y = z.",
	}
	var forced, merged, failed int
	for trial, patterns := 0, 0; patterns < 1000; trial++ {
		src := egds[r.Intn(len(egds))]
		if r.Intn(2) == 0 {
			src += "\n" + egds[r.Intn(len(egds))]
		}
		set := deps.MustParse(src)
		// More atoms over fewer variables, and more constants, make the
		// egds fire: merged head terms, heads forced to a constant,
		// constant clashes.
		q := &cq.CQ{Name: "q", Atoms: randomGameAtoms(r, 4+r.Intn(3), 3, 3)}
		vars := bodyVars(q.Atoms)
		r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		q.Free = vars[:r.Intn(len(vars)+1)]
		db := randomGameDB(r)

		var pattern []instance.Atom
		var frozen []term.Term
		res, fz, err := chase.Query(q, set, chase.Options{})
		switch {
		case errors.Is(err, chase.ErrFailed):
			failed++
		case err != nil:
			t.Fatal(err)
		default:
			pattern, frozen = res.Instance.Atoms(), fz
			patterns++
		}
		want, err := refEGDGame(q, pattern, frozen, db)
		if err != nil {
			t.Fatal(err)
		}
		if pattern != nil {
			got, err := game.Evaluate(pattern, frozen, db, game.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswerSet(got, want) {
				t.Fatalf("egd trial %d: q=%s Σ=%s db=%s\n got %q\nwant %q", trial, q, set, db, got, want)
			}
		}
		p, err := CompilePlan(q, set, Options{}, MethodEGDGame)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := p.Execute(db, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSet(ans, want) {
			t.Fatalf("egd plan trial %d: q=%s Σ=%s db=%s\n got %q\nwant %q", trial, q, set, db, ans, want)
		}
		var isForced, isMerged bool
		seen := make(map[term.Term]bool)
		for _, f := range frozen {
			isForced = isForced || !cq.IsFrozenConst(f)
			isMerged = isMerged || seen[f]
			seen[f] = true
		}
		if isForced {
			forced++
		}
		if isMerged {
			merged++
		}
	}
	t.Logf("guarded: %d Boolean, %d repeated; egd: %d forced, %d merged, %d failed", boolean, repeated, forced, merged, failed)
	if forced < 30 || merged < 15 || failed < 10 {
		t.Fatalf("egd workload drifted: %d forced-constant heads, %d merged heads, %d failing chases", forced, merged, failed)
	}
}
