package core

import (
	"math/rand"
	"strings"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/term"
)

func TestApplicableMethods(t *testing.T) {
	guarded := deps.MustParse("G(x,y), E(x,y) -> E(y,z).")
	keys := deps.MustParse("R(x,y), R(x,z) -> y = z.")
	for _, tc := range []struct {
		name    string
		set     *deps.Set
		verdict Verdict
		layer   string
		sat     bool
		want    []string
	}{
		{"no-yes", guarded, No, "complete", true, []string{MethodGeneric}},
		{"unknown", guarded, Unknown, "budget", true, []string{MethodGeneric}},
		{"guarded-sat", guarded, Yes, "quotient", true,
			[]string{MethodGeneric, MethodYannakakis, MethodGuardedGame}},
		{"guarded-unsat", guarded, Yes, "quotient", false, []string{MethodGeneric}},
		{"core-layer-unsat", guarded, Yes, "core", false,
			[]string{MethodGeneric, MethodYannakakis}},
		{"egds", keys, Yes, "chase-subset", true,
			[]string{MethodGeneric, MethodYannakakis, MethodEGDGame}},
		{"empty-sigma", &deps.Set{}, Yes, "core", true,
			[]string{MethodGeneric, MethodYannakakis}},
	} {
		got := ApplicableMethods(tc.set, tc.verdict, tc.layer, tc.sat)
		if len(got) != len(tc.want) {
			t.Errorf("%s: ApplicableMethods = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: ApplicableMethods = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestCrossCheckAgreementOnExamples(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		q    *cq.CQ
		set  *deps.Set
		db   *instance.Instance
	}{
		{
			name: "example1",
			q:    gen.Example1Query(),
			set:  gen.Example1TGD(),
			db:   gen.Example1DB(r, 6, 8, 3),
		},
		{
			name: "cycle-no-deps",
			q:    gen.CycleCQ(3),
			set:  &deps.Set{},
			db:   gen.RandomGraphDB(r, 30, 5),
		},
		{
			name: "key-query",
			q:    gen.Example4Query(),
			set:  gen.Example4Key(),
			db: instance.MustFromAtoms(
				instance.NewAtom("Flight", term.Const("f1"), term.Const("vie"), term.Const("lhr")),
				instance.NewAtom("Flight", term.Const("f2"), term.Const("lhr"), term.Const("vie")),
			),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := CrossCheck(tc.q, tc.set, tc.db, Options{})
			if err != nil {
				t.Fatalf("CrossCheck: %v", err)
			}
			if len(rep.Methods) == 0 || rep.Methods[0].Method != MethodGeneric {
				t.Fatalf("generic arm missing: %+v", rep.Methods)
			}
			if rep.Verdict == Yes && rep.DBSatisfiesSigma && len(rep.Methods) < 2 {
				t.Errorf("Yes verdict on satisfying DB ran only %d arms", len(rep.Methods))
			}
		})
	}
}

func TestCrossCheckEGDPinnedHeadCoordinate(t *testing.T) {
	// Regression for a fuzz-found egd-game unsoundness (seed
	// egd-pinned-head-coordinate): the key equates the head variable r0
	// with the query constant 'c0' during the chase, so the frozen head
	// tuple carries a rigid constant. The game must then reject every
	// candidate but c0 itself — it used to ignore the pin entirely and
	// admit the spurious answer (c1).
	q := cq.MustParse("q(r0) :- E0('c0','c0'), E0('c0',r0)")
	set := deps.MustParse("E0(x,y), E0(x,z) -> y = z.")
	db := instance.MustFromAtoms(
		instance.NewAtom("E0", term.Const("c0"), term.Const("c0")),
		instance.NewAtom("E0", term.Const("c1"), term.Const("c0")),
	)
	rep, err := CrossCheck(q, set, db, Options{})
	if err != nil {
		t.Fatalf("CrossCheck: %v", err)
	}
	want := [][]term.Term{{term.Const("c0")}}
	if !SameAnswers(rep.Answers, want) {
		t.Fatalf("answers = %s, want %s", FormatAnswers(rep.Answers), FormatAnswers(want))
	}
	hasEGDArm := false
	for _, m := range rep.Methods {
		if m.Method == MethodEGDGame {
			hasEGDArm = true
		}
	}
	if !hasEGDArm {
		t.Fatalf("egd-game arm did not run: %+v", rep.Methods)
	}
}

func TestCrossCheckReportsDisagreement(t *testing.T) {
	// Force a disagreement by comparing two genuinely different answer
	// sets through the report path: SameAnswers and the error text.
	a := [][]term.Term{{term.Const("a")}}
	b := [][]term.Term{{term.Const("b")}}
	if SameAnswers(a, b) {
		t.Fatal("SameAnswers on different sets")
	}
	if !SameAnswers(a, [][]term.Term{{term.Const("a")}}) {
		t.Fatal("SameAnswers rejected equal sets")
	}
	if s := FormatAnswers(a); !strings.Contains(s, "1 answers") || !strings.Contains(s, "(a)") {
		t.Errorf("FormatAnswers = %q", s)
	}
}

func TestCheckLayerMonotonicityOnWorkloads(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, class := range gen.WorkloadClasses {
		for i := 0; i < 3; i++ {
			q, set, _ := gen.RandomWorkload(r, class, 2, 3, 8, 4)
			if err := CheckLayerMonotonicity(q, set, Options{SearchBudget: 2000}); err != nil {
				t.Errorf("class %s #%d: %v\nq = %s\nΣ = %s", class, i, err, q, set)
			}
		}
	}
}
