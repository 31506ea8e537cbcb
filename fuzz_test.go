package semacyclic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"semacyclic/internal/chase"
	"semacyclic/internal/containment"
	"semacyclic/internal/core"
	"semacyclic/internal/corpus"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

// Native fuzz harnesses for the three parsers and the differential
// method-agreement property. Seeds live under testdata/fuzz/<Name>/;
// scripts/ci.sh runs each target briefly, and a longer local run is
//
//	go test -fuzz FuzzParseCQ -fuzztime 60s .
//
// A crasher minimized by the fuzzer should be frozen as a corpus case
// (testdata/corpus) once fixed, not only as a fuzz seed.

// FuzzParseCQ: the query parser never panics, accepts only valid
// queries, and its canonical rendering is a parse fixpoint.
func FuzzParseCQ(f *testing.F) {
	for _, s := range []string{
		"q(x) :- E(x,y), E(y,x).",
		"q :- R('a b', 1, x)",
		"ans(x,y) :- Résumé(x,'日本'), E(x,y)",
		"q() :- E(x,",
		"q() :- E(x,y). junk",
		"'",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := cq.Parse(input)
		if err != nil {
			return
		}
		if verr := q.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid query from %q: %v", input, verr)
		}
		render := q.String()
		back, err := cq.Parse(render)
		if err != nil {
			t.Fatalf("canonical rendering of %q does not re-parse: %v", input, err)
		}
		if back.String() != render {
			t.Fatalf("rendering not a fixpoint: %q vs %q", back.String(), render)
		}
	})
}

// FuzzParseDeps: the dependency parser never panics, accepted sets
// validate, render to a parse fixpoint, and every classifier is total
// on them.
func FuzzParseDeps(f *testing.F) {
	for _, s := range []string{
		"Interest(x,z), Class(y,z) -> Owns(x,y).",
		"R(x,y), R(x,z) -> y = z.",
		"E(x,y) -> E(y,z).\n% comment\nG(x,y,z), E(x,y) -> E(y,z).",
		"R(x,y) ->",
		"R(x,y) S(y).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := deps.Parse(input)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid set from %q: %v", input, verr)
		}
		_ = s.Classes() // classifiers must be total
		_ = s.IsGuarded()
		_ = s.IsSticky()
		_ = s.IsNonRecursive()
		render := s.String()
		back, err := deps.Parse(render)
		if err != nil {
			t.Fatalf("canonical rendering of %q does not re-parse: %v", input, err)
		}
		if back.String() != render {
			t.Fatalf("rendering not a fixpoint: %q vs %q", back.String(), render)
		}
	})
}

// FuzzInstanceRoundTrip: Parse(Dump(I)) == I both for parsed text and
// for instances built directly from fuzz-chosen constants (where Dump
// may refuse only invalid UTF-8).
func FuzzInstanceRoundTrip(f *testing.F) {
	for _, seed := range [][3]string{
		{"R('v1.2').", "a", "b"},
		{"R S(a).", "it's", `back\slash`},
		{"Résumé(é, 日本).", "", " spaced "},
		{"T().", "a,b", "(c)"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, input, c1, c2 string) {
		if db, err := instance.Parse(input); err == nil {
			dump, err := db.Dump()
			if err != nil {
				t.Fatalf("parsed instance not dumpable: %v\ninput %q", err, input)
			}
			back, err := instance.Parse(dump)
			if err != nil {
				t.Fatalf("dump does not re-parse: %v\ndump %q", err, dump)
			}
			if !back.Equal(db) {
				t.Fatalf("Parse(Dump(I)) != I for input %q:\n%s\nvs\n%s", input, back, db)
			}
			dump2, err := back.Dump()
			if err != nil || dump2 != dump {
				t.Fatalf("dump not stable for input %q: %v\n%q\nvs\n%q", input, err, dump2, dump)
			}
		}
		// Constructor arm: any constants at all are storable; Dump must
		// quote its way to a faithful round-trip whenever they are valid
		// UTF-8, and must refuse otherwise.
		db := instance.MustFromAtoms(instance.NewAtom("R", term.Const(c1), term.Const(c2)))
		dump, err := db.Dump()
		if !utf8.ValidString(c1) || !utf8.ValidString(c2) {
			if err == nil {
				t.Fatalf("Dump accepted invalid UTF-8 constants %q, %q", c1, c2)
			}
			return
		}
		if err != nil {
			t.Fatalf("Dump failed on constants %q, %q: %v", c1, c2, err)
		}
		back, err := instance.Parse(dump)
		if err != nil {
			t.Fatalf("dump of constants %q, %q does not re-parse: %v\n%q", c1, c2, err, dump)
		}
		if !back.Equal(db) {
			t.Fatalf("constant round trip lost data for %q, %q:\n%s\nvs\n%s", c1, c2, back, db)
		}
		// Rule arm: the rule renderer quotes the same constants so the
		// query and dependency parsers read them back. Dependencies are
		// one per line, and rules refuse the reserved frozen namespace.
		k1, k2 := term.Const(c1), term.Const(c2)
		if strings.Contains(c1+c2, "\n") || term.IsFrozen(k1) || term.IsFrozen(k2) {
			return
		}
		body := []instance.Atom{instance.NewAtom("R", k1, k2)}
		q := cq.MustNew(nil, body)
		if backQ, err := cq.Parse(q.String()); err != nil || !reflect.DeepEqual(backQ.Atoms, body) {
			t.Fatalf("query %q does not re-parse to its constants %q, %q: %v", q, c1, c2, err)
		}
		tgd := deps.MustTGD(body, []instance.Atom{instance.NewAtom("S", k1)})
		set, err := deps.Parse(tgd.String() + ".")
		if err != nil || len(set.TGDs) != 1 || !reflect.DeepEqual(set.TGDs[0], tgd) {
			t.Fatalf("tgd %q does not re-parse to its constants %q, %q: %v", tgd, c1, c2, err)
		}
	})
}

// FuzzMethodAgreement generates a random (q, Σ, D) workload in a
// fuzz-chosen dependency class, cross-checks every applicable
// evaluation method, asserts the decision pipeline's monotonicity and
// memo-independence contracts, and round-trips the database. A disagreement
// is minimized and emitted in corpus eval-case format so it can be
// frozen under testdata/corpus/eval.
func FuzzMethodAgreement(f *testing.F) {
	for i := range gen.WorkloadClasses {
		f.Add(int64(100+i), uint8(i), uint8(2), uint8(3), uint8(6), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, classByte, nDeps, qAtoms, dbAtoms, domain uint8) {
		class := gen.WorkloadClasses[int(classByte)%len(gen.WorkloadClasses)]
		r := rand.New(rand.NewSource(seed))
		q, set, raw := gen.RandomWorkload(r, class,
			1+int(nDeps)%3, 1+int(qAtoms)%3, 1+int(dbAtoms)%8, 1+int(domain)%4)
		db, err := corpus.SatisfyingDB(raw, set, 2000)
		if err != nil {
			// An egd clash on the raw database is a legitimate outcome,
			// not a bug; evaluate against the unchased instance instead
			// (the cross-check gates Σ-aware arms on satisfaction).
			db = raw
		}
		// The budget bounds worst-case per-input time: the complete
		// search chases one candidate per containment check, and a
		// sticky Σ makes each chase expensive. CrossCheck plus the three
		// monotonicity probes multiply that cost, and the fuzz worker
		// reports inputs slower than ~10s as hangs, so keep the whole
		// battery comfortably under a second per input.
		opt := core.Options{
			SearchBudget: 250,
			Containment: containment.Options{
				Chase: chase.Options{MaxSteps: 300, MaxDepth: 3},
			},
		}
		if _, err := core.CrossCheck(q, set, db, opt); err != nil {
			mq, mset, mdb := gen.Minimize(q, set, db,
				func(q2 *cq.CQ, s2 *deps.Set, d2 *instance.Instance) bool {
					_, e := core.CrossCheck(q2, s2, d2, opt)
					return e != nil
				})
			frozen, _ := gen.EmitEvalCase(mq, mset, mdb, "", nil, "minimized fuzz disagreement")
			t.Fatalf("method disagreement (class %s, seed %d): %v\nminimized case:\n%s", class, seed, err, frozen)
		}
		if err := core.CheckLayerMonotonicity(q, set, opt); err != nil {
			t.Fatalf("class %s, seed %d: %v\nq = %s\nΣ = %s", class, seed, err, q, set)
		}
		dump, err := db.Dump()
		if err != nil {
			t.Fatalf("generated database not dumpable: %v", err)
		}
		back, err := instance.Parse(dump)
		if err != nil || !back.Equal(db) {
			t.Fatalf("database round trip failed (class %s, seed %d): %v", class, seed, err)
		}
	})
}
