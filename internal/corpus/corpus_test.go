package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write lays out a minimal corpus tree in dir.
func write(t *testing.T, dir, name, body string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func scaffold(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write(t, dir, "parse/ok.json",
		`{"parser": "instance", "input": "R('v1.2').", "canonical": "R('v1.2').\n"}`)
	write(t, dir, "parse/bad.json",
		`{"parser": "cq", "input": "q() :- ", "want_error": "expected"}`)
	write(t, dir, "eval/path.json",
		`{"query": "q() :- E(x,y)", "database": "E(a,b).", "verdict": "yes", "answers": [[]]}`)
	write(t, dir, "error/compile.json",
		`{"stage": "compile", "method": "egd-game", "query": "q() :- E(x,y)", "deps": "E(x,y) -> E(y,z).", "want_error": "egd"}`)
	return dir
}

func TestLoadAndRun(t *testing.T) {
	dir := scaffold(t)
	cases, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 4 {
		t.Fatalf("loaded %d cases, want 4", len(cases))
	}
	// Sorted by tier order then filename.
	wantNames := []string{"parse/bad.json", "parse/ok.json", "eval/path.json", "error/compile.json"}
	for i, c := range cases {
		if c.Name != wantNames[i] {
			t.Fatalf("case %d = %s, want %s", i, c.Name, wantNames[i])
		}
		if err := Run(c); err != nil {
			t.Errorf("Run(%s): %v", c.Name, err)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "parse/typo.json", `{"parser": "cq", "inptu": "q() :- E(x,y)"}`)
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "typo.json") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestLoadValidatesTiers(t *testing.T) {
	for name, body := range map[string]string{
		"parse/p.json": `{"parser": "nope", "input": "x"}`,
		"eval/e.json":  `{"query": "q() :- E(x,y)", "database": "E(a,b).", "verdict": "yes"}`,
		"error/x.json": `{"stage": "compile", "query": "q() :- E(x,y)", "want_error": "y"}`,
	} {
		dir := scaffold(t)
		write(t, dir, name, body)
		if _, err := Load(dir); err == nil {
			t.Errorf("invalid case %s accepted", name)
		}
	}
}

func TestRunReportsWrongExpectations(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "eval/wrong.json",
		`{"query": "q() :- E(x,y)", "database": "E(a,b).", "verdict": "yes", "answers": []}`)
	cases, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ran bool
	for _, c := range cases {
		if c.Name != "eval/wrong.json" {
			continue
		}
		ran = true
		if err := Run(c); err == nil || !strings.Contains(err.Error(), "answers") {
			t.Errorf("wrong answer matrix not caught: %v", err)
		}
	}
	if !ran {
		t.Fatal("case not loaded")
	}
}
