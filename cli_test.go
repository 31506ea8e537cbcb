package semacyclic

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTool compiles the named command once per test binary run and
// returns the executable path.
var (
	buildOnce  sync.Once
	buildDir   string
	buildError error
)

func toolPath(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildError = os.MkdirTemp("", "semacyclic-cli")
		if buildError != nil {
			return
		}
		for _, tool := range []string{"semacyc", "chase"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildError = err
				buildError = &buildFailure{tool: tool, out: string(out), err: err}
				return
			}
		}
	})
	if buildError != nil {
		t.Fatalf("building tools: %v", buildError)
	}
	return filepath.Join(buildDir, name)
}

type buildFailure struct {
	tool string
	out  string
	err  error
}

func (b *buildFailure) Error() string {
	return "build " + b.tool + ": " + b.err.Error() + "\n" + b.out
}

func runTool(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(toolPath(t, name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v\n%s", name, err, out)
	}
	return string(out), code
}

func TestCLISemacycYes(t *testing.T) {
	out, code := runTool(t, "semacyc",
		"-query", "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).",
		"-deps", "Interest(x,z), Class(y,z) -> Owns(x,y).",
		"-v", "-join-tree")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"verdict: yes", "witness:", "join tree:", "layer: quotient"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLISemacycNoWithoutConstraints(t *testing.T) {
	out, code := runTool(t, "semacyc",
		"-query", "q :- E(x,y), E(y,z), E(z,x).", "-approximate")
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: no") || !strings.Contains(out, "approximation:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLISemacycUCQMode(t *testing.T) {
	out, code := runTool(t, "semacyc", "-ucq",
		"-query", "q :- E(x,y), E(y,z), E(z,x).\nq :- E(x,y).")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "redundant") || !strings.Contains(out, "witness union:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLISemacycUsageErrors(t *testing.T) {
	if _, code := runTool(t, "semacyc"); code != 3 {
		t.Errorf("missing query exit = %d", code)
	}
	if _, code := runTool(t, "semacyc", "-query", "not a query"); code != 3 {
		t.Errorf("bad query exit = %d", code)
	}
	if _, code := runTool(t, "semacyc", "-query", "q :- E(x,y).", "-query-file", "also.cq"); code != 3 {
		t.Errorf("conflicting flags exit = %d", code)
	}
}

func TestCLISemacycFiles(t *testing.T) {
	dir := t.TempDir()
	qf := filepath.Join(dir, "q.cq")
	df := filepath.Join(dir, "sigma.tgd")
	os.WriteFile(qf, []byte("q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).\n"), 0o644)
	os.WriteFile(df, []byte("Interest(x,z), Class(y,z) -> Owns(x,y).\n"), 0o644)
	out, code := runTool(t, "semacyc", "-query-file", qf, "-deps-file", df)
	if code != 0 || !strings.Contains(out, "verdict: yes") {
		t.Errorf("exit=%d output:\n%s", code, out)
	}
}

func TestCLIChase(t *testing.T) {
	out, code := runTool(t, "chase",
		"-db", "R(a,b). R(b,c).",
		"-deps", "R(x,y) -> S(y).")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"S(b)", "S(c)", "complete: true", "satisfied: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLIChaseQueryWithTrace(t *testing.T) {
	out, code := runTool(t, "chase",
		"-query", "q :- P(x1), P(x2).",
		"-deps", "P(x), P(y) -> R(x,y).",
		"-trace")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "frozen head:") || !strings.Contains(out, "step 1: tgd") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIChaseDBFile(t *testing.T) {
	dir := t.TempDir()
	dbf := filepath.Join(dir, "db.atoms")
	os.WriteFile(dbf, []byte("R(a,b).\nR(b,c).\n"), 0o644)
	out, code := runTool(t, "chase", "-db-file", dbf, "-deps", "R(x,y) -> S(y).")
	if code != 0 || !strings.Contains(out, "S(c)") {
		t.Errorf("exit=%d output:\n%s", code, out)
	}
}

func TestCLIChaseErrors(t *testing.T) {
	if _, code := runTool(t, "chase", "-deps", "R(x,y) -> S(y)."); code != 1 {
		t.Errorf("missing input exit = %d", code)
	}
	if _, code := runTool(t, "chase", "-db", "garbage", "-deps", "R(x,y) -> S(y)."); code != 1 {
		t.Errorf("bad db exit = %d", code)
	}
	// Failing egd chase surfaces as an error.
	if _, code := runTool(t, "chase",
		"-db", "R(k,a). R(k,b).",
		"-deps", "R(x,y), R(x,z) -> y = z."); code != 1 {
		t.Errorf("egd failure exit = %d", code)
	}
}

func TestCLISemacycStats(t *testing.T) {
	// -stats prints the decision's stats JSON after the verdict; a
	// layer-4 run populates the search section. The tight budget keeps
	// the run fast (verdict unknown, exit 2). The triangle carries a
	// third argument: over binary predicates the shape layer settles it
	// before layer 4 runs.
	out, code := runTool(t, "semacyc",
		"-query", "q :- E(x,y,u), E(y,z,u), E(z,x,u).",
		"-deps", "E(x,y,u) -> E(y,x,u).",
		"-budget", "200",
		"-stats")
	if code != 2 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"verdict: unknown", `"chase"`, `"search"`, `"candidates_observed"`, `"layers"`, `"wall_ns"`, `"name": "complete"`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// -stats-out writes the same JSON to a file instead of stdout.
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	out, code = runTool(t, "semacyc",
		"-query", "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).",
		"-deps", "Interest(x,z), Class(y,z) -> Owns(x,y).",
		"-stats-out", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if strings.Contains(out, `"chase"`) {
		t.Errorf("-stats-out leaked JSON to stdout:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("stats file is not JSON: %v\n%s", err, b)
	}
	for _, key := range []string{"chase", "search", "containment", "hom", "layers"} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats file missing %q: %s", key, b)
		}
	}
}

func TestCLISemacycStatsOutFailure(t *testing.T) {
	// A -stats-out path that cannot be created must fail loudly: the
	// verdict alone is not the contract when the caller asked for a
	// stats artifact. Exit 3 distinguishes the I/O failure from the
	// decision outcome codes 0/1/2.
	dir := t.TempDir()
	path := filepath.Join(dir, "no", "such", "dir", "stats.json")
	out, code := runTool(t, "semacyc",
		"-query", "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).",
		"-deps", "Interest(x,z), Class(y,z) -> Owns(x,y).",
		"-stats-out", path)
	if code != 3 {
		t.Fatalf("exit = %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "semacyc: stats:") {
		t.Errorf("missing diagnostic in:\n%s", out)
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("stats file unexpectedly created")
	}
}

func TestCLISemacycVerboseStatsSummary(t *testing.T) {
	out, code := runTool(t, "semacyc",
		"-query", "q :- E(x,y,u), E(y,z,u), E(z,x,u).",
		"-deps", "E(x,y,u) -> E(y,x,u).",
		"-budget", "200",
		"-v")
	if code != 2 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"layer complete", "search: bound=", "chase: rounds=", "hom: enumerations="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLISemacycEvaluateDB(t *testing.T) {
	out, code := runTool(t, "semacyc",
		"-query", "q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).",
		"-deps", "Interest(x,z), Class(y,z) -> Owns(x,y).",
		"-db", "Interest(ann,jazz). Class(kob,jazz). Owns(ann,kob).")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "yannakakis on witness") || !strings.Contains(out, "(ann, kob)") {
		t.Errorf("output:\n%s", out)
	}
	// Cyclic, no witness: generic evaluator path, with a violation
	// warning when the database breaks Σ.
	out, code = runTool(t, "semacyc",
		"-query", "q :- E(x,y), E(y,z), E(z,x).",
		"-db", "E(a,b). E(b,c). E(c,a).")
	if code != 1 { // verdict no → exit 1, but evaluation still printed
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "generic evaluator") || !strings.Contains(out, "answers (generic evaluator): 1") {
		t.Errorf("output:\n%s", out)
	}
}
