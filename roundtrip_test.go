package semacyclic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"semacyclic/internal/corpus"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// requireRoundTrip asserts Parse(Dump(I)) == I and Dump stability.
func requireRoundTrip(t *testing.T, db *instance.Instance, label string) {
	t.Helper()
	dump, err := db.Dump()
	if err != nil {
		t.Fatalf("%s: Dump: %v", label, err)
	}
	back, err := instance.Parse(dump)
	if err != nil {
		t.Fatalf("%s: Parse(Dump): %v\n%s", label, err, dump)
	}
	if !back.Equal(db) {
		t.Fatalf("%s: Parse(Dump(I)) != I:\n%s\nvs\n%s", label, back, db)
	}
	dump2, err := back.Dump()
	if err != nil || dump2 != dump {
		t.Fatalf("%s: Dump not stable: %v", label, err)
	}
}

// TestInstanceRoundTripOnWorkloads: Parse(Dump(I)) == I on generated
// graph databases and on every workload class's databases, chased and
// raw.
func TestInstanceRoundTripOnWorkloads(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		requireRoundTrip(t, gen.RandomGraphDB(r, 40, 8), "graph db")
	}
	for _, class := range gen.WorkloadClasses {
		_, set, raw := gen.RandomWorkload(r, class, 2, 3, 10, 4)
		requireRoundTrip(t, raw, class+" raw")
		sat, err := corpus.SatisfyingDB(raw, set, 3000)
		if err != nil {
			continue // egd clash on a random database is legitimate
		}
		requireRoundTrip(t, sat, class+" chased")
	}
}

// TestInstanceRoundTripNastyConstants: instances built from an
// alphabet of delimiter-heavy constants survive the round trip.
func TestInstanceRoundTripNastyConstants(t *testing.T) {
	nasty := []string{
		"a", "v1.2", "it's", `back\slash`, "", " ", "a,b", "(c)", "'",
		`\`, "new\nline", "tab\t", "日本", "é", "a.b.c.", "--", "''",
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		db := instance.New()
		for j := 0; j < 1+r.Intn(6); j++ {
			if err := db.Add(instance.NewAtom("R",
				term.Const(nasty[r.Intn(len(nasty))]),
				term.Const(nasty[r.Intn(len(nasty))]))); err != nil {
				t.Fatal(err)
			}
		}
		requireRoundTrip(t, db, "nasty")
	}
}

// TestQuotedConstantsOneGrammar: queries, dependencies and databases
// read a quoted constant alike, so a constant holding a backslash or a
// quote names the same value in all three.
func TestQuotedConstantsOneGrammar(t *testing.T) {
	db, err := ParseDatabase(`R(u,'a\\b'). R(v,'it\'s').`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ query, want string }{
		{`q(x) :- R(x,'a\\b').`, "[[u]]"},
		{`q(x) :- R(x,'it\'s').`, "[[v]]"},
	} {
		q, err := ParseQuery(tc.query)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.query, err)
		}
		if got := fmt.Sprint(Evaluate(q, db)); got != tc.want {
			t.Errorf("%s answers %s, want %s", tc.query, got, tc.want)
		}
	}
	set, err := ParseDependencies(`R(x,'a\\b') -> S(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if Satisfies(db, set) {
		t.Errorf("%s satisfied, but R(u,'a\\\\b') has no S(u)", set)
	}
}

// TestRuleRoundTripQuotedConstants: a query, a tgd and an egd built
// with constants holding a quote and a backslash render to text that
// re-parses to an equal value.
func TestRuleRoundTripQuotedConstants(t *testing.T) {
	x, y, z := term.Var("x"), term.Var("y"), term.Var("z")
	quote, slash := term.Const("it's"), term.Const(`back\slash`)
	q := cq.MustNew([]term.Term{x}, []instance.Atom{instance.NewAtom("R", x, quote, slash)})
	back, err := cq.Parse(q.String())
	if err != nil || !reflect.DeepEqual(back, q) {
		t.Fatalf("query %s re-parsed to %v, %v", q, back, err)
	}
	tgd := deps.MustTGD([]instance.Atom{instance.NewAtom("R", x, quote, slash)},
		[]instance.Atom{instance.NewAtom("S", x, slash, quote)})
	egd, err := deps.NewEGD([]instance.Atom{instance.NewAtom("T", x, y, quote), instance.NewAtom("T", x, z, slash)}, y, z)
	if err != nil {
		t.Fatal(err)
	}
	set := deps.NewSet([]*deps.TGD{tgd}, []*deps.EGD{egd})
	parsed, err := deps.Parse(set.String())
	if err != nil || !reflect.DeepEqual(parsed, set) {
		t.Fatalf("dependencies\n%s\nre-parsed to %v, %v", set, parsed, err)
	}
}
