package instance

import (
	"strings"
	"testing"

	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

func TestParseBasics(t *testing.T) {
	db, err := Parse("R(a,b). R(b,c).\nS('quoted'). T().")
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	if !db.Has(NewAtom("S", term.Const("quoted"))) || !db.Has(NewAtom("T")) {
		t.Error("atoms lost")
	}
}

func TestParseDottedAndEscapedConstants(t *testing.T) {
	// The frozen regression of the historical strings.Split(input, ".")
	// implementation: any constant containing a period was "bad atom".
	db, err := Parse("R('v1.2').")
	if err != nil {
		t.Fatalf("dotted constant rejected: %v", err)
	}
	if !db.Has(NewAtom("R", term.Const("v1.2"))) {
		t.Error("dotted constant mangled")
	}
	for input, want := range map[string]string{
		`R('it\'s').`:       "it's",
		`R('').`:            "",
		`R('a,b').`:         "a,b",
		`R('(c)').`:         "(c)",
		`R('back\\slash').`: `back\slash`,
		"R('new\nline').":   "new\nline",
	} {
		db, err := Parse(input)
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		if !db.Has(NewAtom("R", term.Const(want))) {
			t.Errorf("Parse(%q) missing constant %q: %s", input, want, db)
		}
	}
}

// TestAllocsParseAtoms: a quoted constant without escapes is sliced
// from the input, so quoting costs nothing over bare constants (the
// copying reader took 16 here).
func TestAllocsParseAtoms(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, src := range []string{"E(c1,c2). E(c2,c3). P(c3).", "E('c1','c2'). E('c2','c3'). P('c3')."} {
		if allocs := testing.AllocsPerRun(200, func() { _, _ = ParseAtoms(src) }); allocs > 11 {
			t.Errorf("ParseAtoms(%q) allocates %v, want at most 11", src, allocs)
		}
	}
}

func TestParseUnicodeIdentifiers(t *testing.T) {
	db, err := Parse("Résumé(é, 日本).")
	if err != nil {
		t.Fatalf("unicode identifiers rejected: %v", err)
	}
	if !db.Has(NewAtom("Résumé", term.Const("é"), term.Const("日本"))) {
		t.Error("unicode atom mangled")
	}
}

func TestParseErrors(t *testing.T) {
	for input, wantSub := range map[string]string{
		"":                 "empty database",
		"   \n\t ":         "empty database",
		"R(a,b":            "expected ',' or ')'",
		"noparens.":        "expected '('",
		"(a).":             "expected predicate identifier",
		"R(a,,b).":         "empty argument",
		"R S(a).":          "expected '(' after predicate R",
		"R(a)":             "expected '.'",
		"R(a). junk":       "expected '('",
		"R('unterminated.": "unterminated quoted constant",
		`R('bad\escape').`: "bad escape",
		"R(\xff).":         "not valid UTF-8",
		"R(a). R(a,b).":    "arity",
		"1Pred(a).":        "expected predicate identifier",
		"R(a) extra . ":    "expected '.'",
		"R(don't).":        "expected ',' or ')'",
	} {
		_, err := Parse(input)
		if err == nil {
			t.Errorf("Parse(%q) accepted", input)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", input, err, wantSub)
		}
	}
}

// TestParseDumpInverse: Parse is the exact inverse of Dump on every
// dumpable instance, and Dump is stable (Dump(Parse(Dump(I))) == Dump(I)).
func TestParseDumpInverse(t *testing.T) {
	ins := MustFromAtoms(
		NewAtom("R", term.Const("a"), term.Const("b")),
		NewAtom("R", term.Const("v1.2"), term.Const("it's")),
		NewAtom("S", term.Const(" padded "), term.Const("")),
		NewAtom("U", term.Const("日本"), term.Const(`\'`)),
	)
	dump, err := ins.Dump()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(dump)
	if err != nil {
		t.Fatalf("Parse(Dump) failed: %v\n%s", err, dump)
	}
	if !back.Equal(ins) {
		t.Fatalf("Parse(Dump) != I:\n%s\nvs\n%s", back, ins)
	}
	dump2, err := back.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if dump2 != dump {
		t.Fatalf("Dump not stable:\n%q\nvs\n%q", dump2, dump)
	}
}
