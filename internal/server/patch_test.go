package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"semacyclic/internal/cq"
	"semacyclic/internal/hom"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
)

// patch issues PATCH /instances/{name} with a JSON body.
func patch(t *testing.T, ts *httptest.Server, name string, body PatchRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/instances/"+name, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func sortedAnswers(ans [][]string) []string {
	out := make([]string, len(ans))
	for i, tup := range ans {
		out[i] = fmt.Sprint(tup)
	}
	sort.Strings(out)
	return out
}

func TestPatchLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms})
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	var loaded InstanceInfo
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}

	// A mixed batch: one net insert, one net delete (delete of an absent
	// atom is a no-op), one atom both deleted and inserted stays present.
	r, body = patch(t, ts, "db", PatchRequest{
		Insert: "S(q,w). S(a,x).",
		Delete: "S(b,y). S(zz,zz). S(a,x).",
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", r.StatusCode, body)
	}
	var pr PatchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Name != "db" || pr.Inserted != 1 || pr.Deleted != 1 || pr.Atoms != 6 {
		t.Fatalf("patch response = %+v, want inserted=1 deleted=1 atoms=6", pr)
	}
	if pr.Epoch != loaded.Epoch+1 {
		t.Fatalf("epoch = %d, want load epoch %d + 1", pr.Epoch, loaded.Epoch)
	}

	// The listing reflects the batch: size, per-predicate counts, epoch.
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
	if len(list.Instances) != 1 {
		t.Fatalf("list = %+v", list.Instances)
	}
	info := list.Instances[0]
	if info.Atoms != 6 || info.Predicates["S"] != 3 || info.Epoch != pr.Epoch {
		t.Fatalf("info after patch = %+v", info)
	}

	// A second batch advances the epoch again.
	r, body = patch(t, ts, "db", PatchRequest{Delete: "S(q,w)."})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("patch 2: %d %s", r.StatusCode, body)
	}
	var pr2 PatchResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Epoch != pr.Epoch+1 || pr2.Deleted != 1 || pr2.Atoms != 5 {
		t.Fatalf("patch 2 response = %+v (prev epoch %d)", pr2, pr.Epoch)
	}
}

func TestPatchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstanceAtoms: 8})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	cases := []struct {
		name   string
		target string
		req    PatchRequest
		want   int
	}{
		{"unknown instance", "nope", PatchRequest{Insert: "R(a,b)."}, http.StatusNotFound},
		{"bad insert syntax", "db", PatchRequest{Insert: "R(a,"}, http.StatusBadRequest},
		{"bad delete syntax", "db", PatchRequest{Delete: "not atoms"}, http.StatusBadRequest},
		{"empty batch", "db", PatchRequest{}, http.StatusBadRequest},
		{"arity clash", "db", PatchRequest{Insert: "R(only_one)."}, http.StatusConflict},
		{"within-batch arity clash", "db", PatchRequest{Insert: "T(a). T(a,b)."}, http.StatusConflict},
		{"over atom limit", "db", PatchRequest{Insert: "R(n1,n2). R(n3,n4). R(n5,n6)."}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		r, body := patch(t, ts, c.target, c.req)
		if r.StatusCode != c.want {
			t.Fatalf("%s: status = %d, want %d (%s)", c.name, r.StatusCode, c.want, body)
		}
	}
	// Every failure left the instance untouched.
	resp, body := patch(t, ts, "db", PatchRequest{Insert: "R(n1,n2)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final patch: %d %s", resp.StatusCode, body)
	}
	var pr PatchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Atoms != 7 {
		t.Fatalf("atoms = %d, want 7 (failed patches must not apply)", pr.Atoms)
	}
}

// An incremental /evaluate sequence walks the reducer-state decisions:
// cold on the first run, reused on an unchanged replay, repaired after
// an insert-only patch, recomputed after a patch with deletes — with
// answers matching a stateless evaluation at every step.
func TestEvaluateReducerProgression(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	query := "q(x,y) :- R(g1,x), S(x,y)."
	eval := func() EvaluateResponse {
		t.Helper()
		r, body := post(t, ts, "/evaluate", EvaluateRequest{Query: query, Instance: "db", Method: "yannakakis"})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d %s", r.StatusCode, body)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(step string, resp EvaluateResponse, wantReducer string, wantAnswers []string) {
		t.Helper()
		if resp.Reducer != wantReducer {
			t.Fatalf("%s: reducer = %q, want %q", step, resp.Reducer, wantReducer)
		}
		if got := sortedAnswers(resp.Answers); fmt.Sprint(got) != fmt.Sprint(wantAnswers) {
			t.Fatalf("%s: answers = %v, want %v", step, got, wantAnswers)
		}
	}

	// The obs counters are process-global; diff against a snapshot so
	// other tests in the binary don't skew the assertions.
	snap := obs.TakeSnapshot()

	first := eval()
	check("cold", first, "cold", []string{"[a x]", "[b y]", "[c z]"})
	second := eval()
	check("replay", second, "reused", []string{"[a x]", "[b y]", "[c z]"})
	if second.Epoch != first.Epoch {
		t.Fatalf("epoch moved without a patch: %d vs %d", second.Epoch, first.Epoch)
	}

	r, body := patch(t, ts, "db", PatchRequest{Insert: "S(a,w)."})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("insert patch: %d %s", r.StatusCode, body)
	}
	third := eval()
	check("after insert", third, "repaired", []string{"[a w]", "[a x]", "[b y]", "[c z]"})
	if third.Epoch != first.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", third.Epoch, first.Epoch+1)
	}

	r, body = patch(t, ts, "db", PatchRequest{Delete: "S(b,y)."})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("delete patch: %d %s", r.StatusCode, body)
	}
	fourth := eval()
	check("after delete", fourth, "recomputed", []string{"[a w]", "[a x]", "[c z]"})
	if fourth.Epoch != first.Epoch+2 {
		t.Fatalf("epoch = %d, want %d", fourth.Epoch, first.Epoch+2)
	}

	// Each decision bumped its counter exactly once, and the patches
	// accounted one insert, one delete and two epochs.
	for _, c := range []struct {
		counter *obs.Counter
		want    int64
	}{
		{obs.ServerReducerCold, 1},
		{obs.ServerReducerReused, 1},
		{obs.ServerReducerRepaired, 1},
		{obs.ServerReducerRecomputed, 1},
		{obs.ServerReducerMixed, 0},
		{obs.ServerPatches, 2},
		{obs.ServerDeltaInserts, 1},
		{obs.ServerDeltaDeletes, 1},
		{obs.ServerEpochChurn, 2},
	} {
		if got := c.counter.Load() - snap[c.counter.Name()]; got != c.want {
			t.Fatalf("counter %s delta = %d, want %d", c.counter.Name(), got, c.want)
		}
	}

	// The labeled families reach /metrics.
	waitForBody(t, ts, "/metrics",
		`semacycd_reducer_decisions_total{decision="cold"}`,
		`semacycd_reducer_decisions_total{decision="reused"}`,
		`semacycd_reducer_decisions_total{decision="repaired"}`,
		`semacycd_reducer_decisions_total{decision="recomputed"}`,
		`semacycd_reducer_decisions_total{decision="mixed"}`,
		`semacycd_delta_atoms_total{op="insert"}`,
		`semacycd_delta_atoms_total{op="delete"}`,
		`semacycd_epoch_churn_total`,
	)
}

// TestEvaluateReducerAfterReload: the reducer state cached for a name
// outlives a reload of that name. Once PATCHes carry the reloaded
// instance past the state's epoch, the next evaluation must recompute,
// not repair from another instance's view, and answer as a stateless
// evaluation of the current atoms does.
func TestEvaluateReducerAfterReload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	query := "q(x,y) :- R(g1,x), S(x,y)."
	load := func(atoms string, replace bool) {
		t.Helper()
		if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: atoms, Replace: replace}); r.StatusCode != http.StatusCreated {
			t.Fatalf("load: %d %s", r.StatusCode, body)
		}
	}
	eval := func() EvaluateResponse {
		t.Helper()
		r, body := post(t, ts, "/evaluate", EvaluateRequest{Query: query, Instance: "db", Method: "yannakakis"})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d %s", r.StatusCode, body)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	load(testAtoms, false)
	first := eval()
	if first.Reducer != "cold" {
		t.Fatalf("first evaluation: reducer = %q, want cold", first.Reducer)
	}

	atoms := "R(g1,d). R(g1,a). S(d,u). S(a,u)."
	load(atoms, true)
	var epoch uint64
	for i := 0; epoch <= first.Epoch; i++ {
		batch := fmt.Sprintf("S(d,v%d).", i)
		r, body := patch(t, ts, "db", PatchRequest{Insert: batch})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("patch: %d %s", r.StatusCode, body)
		}
		var pr PatchResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		epoch = pr.Epoch
		atoms += " " + batch
	}

	got := eval()
	if got.Reducer != "recomputed" || got.Epoch != epoch {
		t.Fatalf("after reload: reducer = %q at epoch %d, want recomputed at %d", got.Reducer, got.Epoch, epoch)
	}
	db, err := instance.Parse(atoms)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, tup := range hom.Evaluate(cq.MustParse(query), db) {
		want = append(want, fmt.Sprint([]string{tup[0].Name, tup[1].Name}))
	}
	sort.Strings(want)
	if fmt.Sprint(sortedAnswers(got.Answers)) != fmt.Sprint(want) {
		t.Fatalf("after reload: answers = %v, want %v", sortedAnswers(got.Answers), want)
	}
}

// An overlay evaluation answers as if the delta were applied and leaves
// the stored instance (and the retained reducer state) untouched.
func TestEvaluateOverlay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if r, body := post(t, ts, "/instances", InstanceRequest{Name: "db", Atoms: testAtoms}); r.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", r.StatusCode, body)
	}
	query := "q(x,y) :- R(g1,x), S(x,y)."
	eval := func(req EvaluateRequest) (int, EvaluateResponse, []byte) {
		t.Helper()
		req.Query, req.Instance = query, "db"
		r, body := post(t, ts, "/evaluate", req)
		var resp EvaluateResponse
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
		}
		return r.StatusCode, resp, body
	}

	st, base, body := eval(EvaluateRequest{})
	if st != http.StatusOK {
		t.Fatalf("base evaluate: %d %s", st, body)
	}
	if base.Overlay || base.Reducer != "cold" {
		t.Fatalf("base = overlay:%v reducer:%q", base.Overlay, base.Reducer)
	}

	st, what, body := eval(EvaluateRequest{Overlay: &OverlayRequest{Insert: "S(a,w9).", Delete: "S(b,y)."}})
	if st != http.StatusOK {
		t.Fatalf("overlay evaluate: %d %s", st, body)
	}
	if !what.Overlay || what.Reducer != "" {
		t.Fatalf("overlay response = overlay:%v reducer:%q", what.Overlay, what.Reducer)
	}
	if got := sortedAnswers(what.Answers); fmt.Sprint(got) != fmt.Sprint([]string{"[a w9]", "[a x]", "[c z]"}) {
		t.Fatalf("overlay answers = %v", got)
	}
	if what.Epoch != base.Epoch {
		t.Fatalf("overlay epoch = %d, want base %d", what.Epoch, base.Epoch)
	}

	// The stored instance is untouched and the reducer state survived
	// (the overlay ran statelessly beside it).
	st, after, body := eval(EvaluateRequest{})
	if st != http.StatusOK {
		t.Fatalf("post-overlay evaluate: %d %s", st, body)
	}
	if after.Reducer != "reused" {
		t.Fatalf("post-overlay reducer = %q, want reused", after.Reducer)
	}
	if fmt.Sprint(sortedAnswers(after.Answers)) != fmt.Sprint(sortedAnswers(base.Answers)) {
		t.Fatalf("base answers disturbed: %v vs %v", after.Answers, base.Answers)
	}

	// Overlay failure modes: bad syntax and empty block → 400, arity
	// clash against the instance schema → 409.
	if st, _, body := eval(EvaluateRequest{Overlay: &OverlayRequest{Insert: "R(a,"}}); st != http.StatusBadRequest {
		t.Fatalf("bad overlay syntax: %d %s", st, body)
	}
	if st, _, body := eval(EvaluateRequest{Overlay: &OverlayRequest{}}); st != http.StatusBadRequest {
		t.Fatalf("empty overlay: %d %s", st, body)
	}
	if st, _, body := eval(EvaluateRequest{Overlay: &OverlayRequest{Insert: "R(only_one)."}}); st != http.StatusConflict {
		t.Fatalf("overlay arity clash: %d %s", st, body)
	}
}
