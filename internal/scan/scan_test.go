package scan

import (
	"strings"
	"testing"
)

func TestCheckUTF8(t *testing.T) {
	if err := CheckUTF8("héllo 日本 _x1"); err != nil {
		t.Fatalf("valid UTF-8 rejected: %v", err)
	}
	err := CheckUTF8("ab\xffcd")
	if err == nil || !strings.Contains(err.Error(), "offset 2") {
		t.Fatalf("invalid UTF-8 error = %v, want byte offset 2", err)
	}
	// A lone continuation byte (0x85 also satisfies unicode.IsSpace as
	// a rune — the bug that made byte-wise skipSpace eat it).
	if CheckUTF8("a\x85b") == nil {
		t.Fatal("lone continuation byte accepted")
	}
}

func TestSkipSpaceRuneAware(t *testing.T) {
	// U+2003 EM SPACE is a 3-byte space rune.
	s := " \t x"
	if got := SkipSpace(s, 0); got != len(s)-1 {
		t.Fatalf("SkipSpace = %d, want %d", got, len(s)-1)
	}
	if got := SkipSpace("abc", 1); got != 1 {
		t.Fatalf("SkipSpace on non-space = %d, want 1", got)
	}
	if got := SkipSpace("  ", 0); got != 2 {
		t.Fatalf("SkipSpace to EOF = %d, want 2", got)
	}
}

func TestIdent(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		ok   bool
	}{
		{"abc(", "abc", true},
		{"_x1 rest", "_x1", true},
		{"é2", "é2", true},
		{"日本語)", "日本語", true},
		{"1abc", "", false},
		{"", "", false},
		{"'q'", "", false},
	} {
		id, end, ok := Ident(tc.in, 0)
		if ok != tc.ok || id != tc.want {
			t.Errorf("Ident(%q) = %q,%v want %q,%v", tc.in, id, ok, tc.want, tc.ok)
		}
		if ok && tc.in[end:] != tc.in[len(id):] {
			t.Errorf("Ident(%q) end = %d", tc.in, end)
		}
	}
}

func TestDigits(t *testing.T) {
	lit, end, ok := Digits("123abc", 0)
	if !ok || lit != "123" || end != 3 {
		t.Fatalf("Digits = %q,%d,%v", lit, end, ok)
	}
	if _, _, ok := Digits("abc", 0); ok {
		t.Fatal("Digits accepted letters")
	}
}

func TestIsIdent(t *testing.T) {
	for in, want := range map[string]bool{
		"R": true, "Résumé": true, "_a1": true,
		"": false, "R S": false, "1R": false, "a.b": false,
	} {
		if IsIdent(in) != want {
			t.Errorf("IsIdent(%q) = %v, want %v", in, !want, want)
		}
	}
}

// TestQuoted pins the one quoted-constant syntax: \' and \\ are the
// only escapes, an escape-free name is a slice of the input, errors
// point at the opening quote or the bad backslash, and WriteQuoted is
// Quoted's exact inverse.
func TestQuoted(t *testing.T) {
	for _, tc := range []struct{ in, name, rest string }{
		{`'abc' x`, "abc", " x"},
		{`''`, "", ""},
		{`'it\'s'`, "it's", ""},
		{`'back\\slash',`, `back\slash`, ","},
		{`'\\\''`, `\'`, ""},
		{"'日本 .,()'", "日本 .,()", ""},
	} {
		name, end, err := Quoted(tc.in, 0)
		if err != nil || name != tc.name || tc.in[end:] != tc.rest {
			t.Errorf("Quoted(%q) = %q, rest %q, %v; want %q, rest %q", tc.in, name, tc.in[end:], err, tc.name, tc.rest)
		}
		var b strings.Builder
		WriteQuoted(&b, name)
		if back, end, err := Quoted(b.String(), 0); err != nil || back != name || end != b.Len() {
			t.Errorf("Quoted(WriteQuoted(%q)) = %q, %d, %v", name, back, end, err)
		}
	}
	for _, tc := range []struct {
		in   string
		at   int
		want string
	}{
		{`x 'abc`, 2, "unterminated quoted constant"},
		{`x 'it\'s`, 2, "unterminated quoted constant"},
		{`x 'a\b'`, 4, "bad escape in quoted constant"},
		{`x 'a\`, 4, "bad escape in quoted constant"},
	} {
		_, end, err := Quoted(tc.in, 2)
		if err == nil || end != tc.at || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Quoted(%q) error at %d: %v; want %q at %d", tc.in, end, err, tc.want, tc.at)
		}
	}
}
