package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

const testAtoms = "R(g1,a). R(g1,b). R(g2,c). S(a,x). S(b,y). S(c,z)."

func del(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestInstanceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxInstances: 2})

	r, body := post(t, ts, "/instances", InstanceRequest{Name: "db1", Atoms: testAtoms})
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("load status = %d: %s", r.StatusCode, body)
	}
	var info InstanceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "db1" || info.Atoms != 6 || info.Predicates["R"] != 3 || info.Predicates["S"] != 3 {
		t.Fatalf("info = %+v", info)
	}

	// Duplicate without replace → 409; with replace → 201.
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "db1", Atoms: "R(x,y)."}); r.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status = %d, want 409", r.StatusCode)
	}
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "db1", Atoms: testAtoms, Replace: true}); r.StatusCode != http.StatusCreated {
		t.Fatalf("replace status = %d, want 201", r.StatusCode)
	}

	// Bad names and bad atoms → 400.
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "", Atoms: testAtoms}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name status = %d, want 400", r.StatusCode)
	}
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "a/b", Atoms: testAtoms}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("slash name status = %d, want 400", r.StatusCode)
	}
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "db2", Atoms: "not an atom"}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad atoms status = %d, want 400", r.StatusCode)
	}

	// Registry capacity: 2nd fits, 3rd → 507.
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "db2", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("db2 status = %d, want 201", r.StatusCode)
	}
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "db3", Atoms: testAtoms}); r.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity status = %d, want 507", r.StatusCode)
	}

	// List is sorted by name.
	resp, err := ts.Client().Get(ts.URL + "/instances")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Instances []InstanceInfo `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Instances) != 2 || list.Instances[0].Name != "db1" || list.Instances[1].Name != "db2" {
		t.Fatalf("list = %+v", list.Instances)
	}

	// Delete → 204, then 404.
	if r := del(t, ts, "/instances/db2"); r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", r.StatusCode)
	}
	if r := del(t, ts, "/instances/db2"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete status = %d, want 404", r.StatusCode)
	}
}

func TestInstanceAtomLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstanceAtoms: 2})
	if r, _ := post(t, ts, "/instances", InstanceRequest{Name: "big", Atoms: testAtoms}); r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", r.StatusCode)
	}
}

// /evaluate returns the same answer set as the library-level evaluation
// and flips plan_cached on the second request.
func TestEvaluateMatchesLibraryAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}

	query := "q(x,y) :- R(g1,x), S(x,y)."
	hits0 := obs.ServerPlanCacheHits.Load()
	r, body := post(t, ts, "/evaluate", EvaluateRequest{Query: query, Instance: "db"})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d %s", r.StatusCode, body)
	}
	var first EvaluateResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.PlanCached {
		t.Fatal("first evaluation reported plan_cached")
	}
	if first.Method != "yannakakis" || first.Verdict != "yes" {
		t.Fatalf("method=%s verdict=%s, want yannakakis/yes", first.Method, first.Verdict)
	}

	db, err := instance.Parse(testAtoms)
	if err != nil {
		t.Fatal(err)
	}
	want := hom.Evaluate(cq.MustParse(query), db)
	if len(first.Answers) != len(want) {
		t.Fatalf("answers = %v, want %d tuples (%v)", first.Answers, len(want), want)
	}
	seen := make(map[string]bool)
	for _, tup := range want {
		seen[fmt.Sprintf("%s,%s", tup[0].Name, tup[1].Name)] = true
	}
	for _, tup := range first.Answers {
		if len(tup) != 2 || !seen[fmt.Sprintf("%s,%s", tup[0], tup[1])] {
			t.Fatalf("unexpected answer %v (want one of %v)", tup, want)
		}
	}

	r, body = post(t, ts, "/evaluate", EvaluateRequest{Query: query, Instance: "db"})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("re-evaluate: %d %s", r.StatusCode, body)
	}
	var second EvaluateResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached {
		t.Fatal("second evaluation not plan_cached")
	}
	if fmt.Sprint(second.Answers) != fmt.Sprint(first.Answers) {
		t.Fatalf("cached answers differ: %v vs %v", second.Answers, first.Answers)
	}
	if obs.ServerPlanCacheHits.Load() != hits0+1 {
		t.Fatalf("plan_cache_hits delta = %d, want 1", obs.ServerPlanCacheHits.Load()-hits0)
	}
}

// Two fresh compiles of the same evaluation return identical answers,
// method, verdict and witness (the determinism contract extended to
// /evaluate). The second request names the default budget explicitly:
// it decides exactly as the first but keys another plan, so it
// compiles afresh. (The name predates the sequential search.)
func TestEvaluateDeterministicAcrossParallelism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	query := "q(x,y) :- R(g1,x), S(x,y)."
	deps := "R(u,v) -> S(v,w)."
	var got []EvaluateResponse
	for _, budget := range []int{0, 20000} {
		r, body := post(t, ts, "/evaluate", EvaluateRequest{Query: query, Deps: deps, Instance: "db", Budget: budget})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: %d %s", budget, r.StatusCode, body)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.PlanCached {
			t.Fatalf("budget %d: plan_cached, want a fresh compile", budget)
		}
		got = append(got, resp)
	}
	if got[1].Method != got[0].Method || got[1].Verdict != got[0].Verdict ||
		got[1].Witness != got[0].Witness || fmt.Sprint(got[1].Answers) != fmt.Sprint(got[0].Answers) {
		t.Fatalf("the second compile differs from the first:\n%+v\n%+v", got[1], got[0])
	}
}

// TestEvaluateQuotedConstants: a query names a loaded constant holding
// a backslash or a quote with the instance's own quoting, and finds
// its row.
func TestEvaluateQuotedConstants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: `R(u,'a\\b'). R(v,'it\'s').`}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	for _, tc := range []struct{ query, want string }{
		{`q(x) :- R(x,'a\\b').`, "[[u]]"},
		{`q(x) :- R(x,'it\'s').`, "[[v]]"},
	} {
		r, body := post(t, ts, "/evaluate", EvaluateRequest{Query: tc.query, Instance: "db"})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.query, r.StatusCode, body)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(resp.Answers); got != tc.want {
			t.Errorf("%s answers %s, want %s", tc.query, got, tc.want)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	cases := []struct {
		name string
		req  EvaluateRequest
		want int
	}{
		{"unknown instance", EvaluateRequest{Query: "q(x) :- R(x,y).", Instance: "nope"}, http.StatusNotFound},
		{"missing query", EvaluateRequest{Instance: "db"}, http.StatusBadRequest},
		{"bad method", EvaluateRequest{Query: "q(x) :- R(x,y).", Instance: "db", Method: "bogus"}, http.StatusBadRequest},
		{"guarded-game precondition", EvaluateRequest{Query: "q(x) :- R(x,y).", Deps: "R(x,y), R(y,z) -> S(x,z).", Instance: "db", Method: "guarded-game"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if r, body := post(t, ts, "/evaluate", c.req); r.StatusCode != c.want {
			t.Fatalf("%s: status = %d, want %d (%s)", c.name, r.StatusCode, c.want, body)
		}
	}
}

// A deadline too tight for the decision inside plan compilation comes
// back as 504, exactly like /decide.
func TestEvaluateDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	requireBudgetLayer(t, ts)
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: "S0(a,b,d). S0(b,c,d). S0(c,a,d)."}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	req := EvaluateRequest{
		Query:      slowQuery,
		Deps:       slowDeps,
		Instance:   "db",
		Budget:     1 << 30,
		DeadlineMS: 1,
	}
	r, body := post(t, ts, "/evaluate", req)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", r.StatusCode, body)
	}
}

// TestAllocsRenderAnswers guards the answer rendering: every row is a
// window of one slab, so rendering costs two allocations whatever the
// number of answers, where one slice per row took N+1. The rows keep
// their values and marshal as before, an empty row as [].
func TestAllocsRenderAnswers(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		ans := make([][]term.Term, n)
		for i := range ans {
			ans[i] = []term.Term{term.Const(fmt.Sprint("a", i)), term.Const("b")}
		}
		rows := renderAnswers(ans)
		for i, row := range rows {
			if len(row) != 2 || cap(row) != 2 || row[0] != ans[i][0].Name || row[1] != "b" {
				t.Fatalf("row %d = %q (cap %d), want [%s b] (cap 2)", i, row, cap(row), ans[i][0].Name)
			}
		}
		if testutil.RaceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { renderAnswers(ans) }); allocs != 2 {
			t.Errorf("rendering %d answers allocates %v, want 2", n, allocs)
		}
	}
	got, err := json.Marshal(renderAnswers([][]term.Term{{}, {}}))
	if err != nil || string(got) != "[[],[]]" {
		t.Errorf("two Boolean answers marshal as %s (%v), want [[],[]]", got, err)
	}
}
