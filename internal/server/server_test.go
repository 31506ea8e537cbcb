package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"semacyclic/internal/obs"
)

const stickyQuery = "q :- S0(x,y), S0(y,z), S0(z,x)."
const stickyDeps = "US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y)."

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

// A cache hit returns the stored bytes verbatim: byte-identical to the
// fresh response, with the verdict reported in the header.
func TestDecideCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := DecideRequest{Query: "q(x) :- R(x,y), S(y,x), T(x,y)", Deps: "R(x,y) -> S(y,x)"}
	r1, fresh := post(t, ts, "/decide", req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("fresh status = %d: %s", r1.StatusCode, fresh)
	}
	if got := r1.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("fresh %s = %q, want miss", cacheHeader, got)
	}
	r2, hit := post(t, ts, "/decide", req)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %d", r2.StatusCode)
	}
	if got := r2.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("hit %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(fresh, hit) {
		t.Fatalf("cache hit not byte-identical:\n fresh %s\n hit   %s", fresh, hit)
	}
	var dr DecideResponse
	if err := json.Unmarshal(hit, &dr); err != nil {
		t.Fatalf("response not a DecideResponse: %v", err)
	}
	if dr.Verdict != "yes" || dr.Witness == "" || dr.Fingerprint == "" {
		t.Fatalf("unexpected response: %+v", dr)
	}
}

// Queries whose constants hold the canonical key's separator bytes are
// cached apart: the second of two non-isomorphic queries, which shared
// a key before the key escaped those bytes, is decided afresh and
// answered with its own witness.
func TestDecideCacheKeySeparatorBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, c := range []struct{ query, constant string }{
		{"q :- R('a\x00c:b','c'), S(x).", "a\x00c:b"},
		{"q :- R('a','b\x00c:c'), S(x).", "b\x00c:c"},
	} {
		r, body := post(t, ts, "/decide", DecideRequest{Query: c.query})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", c.query, r.StatusCode, body)
		}
		var dr DecideResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatalf("%q: response not a DecideResponse: %v", c.query, err)
		}
		if got := r.Header.Get(cacheHeader); got != "miss" {
			t.Errorf("%q: %s = %q, want miss", c.query, cacheHeader, got)
		}
		if !strings.Contains(dr.Witness, "'"+c.constant+"'") {
			t.Errorf("%q: witness %q is not this query's", c.query, dr.Witness)
		}
	}
}

// A request deadline propagates into every decision layer: each sticky
// request aborts with 504 within a bounded overshoot of its deadline
// instead of running the search to its (huge) budget.
func TestDeadlinePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const (
		deadline  = 50 * time.Millisecond
		overshoot = time.Second
		requests  = 5
	)
	before := obs.ServerCancelled.Load()
	var worst time.Duration
	for i := 0; i < requests; i++ {
		start := time.Now()
		resp, body := post(t, ts, "/decide", DecideRequest{
			Query: stickyQuery, Deps: stickyDeps, Budget: 1<<30 + i, DeadlineMS: deadline.Milliseconds(),
		})
		wall := time.Since(start)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status = %d (%s), want 504", i, resp.StatusCode, body)
		}
		worst = max(worst, wall)
	}
	t.Logf("slowest of %d cancellations: %v", requests, worst)
	if worst > deadline+overshoot {
		t.Fatalf("slowest cancellation took %v, want at most %v", worst, deadline+overshoot)
	}
	if got := obs.ServerCancelled.Load(); got < before+requests {
		t.Fatalf("server.cancelled counter advanced %d, want at least %d", got-before, requests)
	}
}

// A full queue sheds immediately with 429 + Retry-After while admitted
// work completes normally.
func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultDeadline: 2 * time.Second})
	before := obs.ServerShed.Load()
	const n = 10
	statuses := make([]int, n)
	var retryAfter string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, ts, "/decide", DecideRequest{
				Query: stickyQuery, Deps: stickyDeps, Budget: 500000 + i,
			})
			mu.Lock()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter = resp.Header.Get("Retry-After")
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	shed := 0
	for _, s := range statuses {
		if s == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatalf("no request shed; statuses = %v", statuses)
	}
	if retryAfter == "" {
		t.Fatalf("429 carried no Retry-After header")
	}
	if got := obs.ServerShed.Load(); got < before+int64(shed) {
		t.Fatalf("server.shed counter %d, want >= %d", got, before+int64(shed))
	}
}

// Batch results align index-for-index with the request: parse errors
// stay per-item, valid items carry the exact response bytes a single
// /decide returns for the same input.
func TestBatchAlignmentAndReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	good := DecideRequest{Query: "q :- E(x,y), E(y,x)"}
	resp, body := post(t, ts, "/decide/batch", BatchRequest{Requests: []DecideRequest{
		{Query: "this is not a query"},
		good,
		good,
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(br.Results))
	}
	if br.Results[0].Error == "" || br.Results[0].Result != nil {
		t.Fatalf("bad item should carry an error: %+v", br.Results[0])
	}
	if br.Results[1].Error != "" || br.Results[1].Result == nil {
		t.Fatalf("good item should carry a result: %+v", br.Results[1])
	}
	if !bytes.Equal(br.Results[1].Result, br.Results[2].Result) {
		t.Fatalf("duplicate items differ:\n %s\n %s", br.Results[1].Result, br.Results[2].Result)
	}
	// A follow-up single decide serves the batch-populated cache entry
	// with identical bytes.
	r2, single := post(t, ts, "/decide", good)
	if got := r2.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("single after batch: %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(bytes.TrimRight(single, "\n"), []byte(br.Results[1].Result)) {
		t.Fatalf("batch and single bytes differ:\n %s\n %s", br.Results[1].Result, single)
	}
}

// Drain completes in-flight work, then rejects new work with 503 and
// flips /healthz to draining.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := post(t, ts, "/decide", DecideRequest{Query: "q :- E(x,y)"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain decide: %d", resp.StatusCode)
	}
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
	resp, body := post(t, ts, "/decide", DecideRequest{Query: "q :- E(x,y), E(y,z)"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain decide = %d (%s), want 503", resp.StatusCode, body)
	}
	hresp, hbody := getHealthz(t, ts)
	if hresp != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d (%s), want 503", hresp, hbody)
	}
	srv.Drain() // idempotent
}

func getHealthz(t *testing.T, ts *httptest.Server) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes()
}

// The full lifecycle leaks no goroutines: workers exit on Drain, and
// request contexts release their timers.
func TestNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 8; i++ {
		req := DecideRequest{Query: fmt.Sprintf("q :- E(x,y), E(y,z%d)", i)}
		if resp, body := post(t, ts, "/decide", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	ts.Client().CloseIdleConnections()
	ts.Close()
	srv.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Parse errors and malformed bodies come back as 400 with a JSON error.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		path string
		body any
	}{
		{"/decide", DecideRequest{Query: "nonsense ::- x"}},
		{"/decide", DecideRequest{}},
		{"/decide", DecideRequest{Query: "q :- E(x,y)", Deps: "not a dependency"}},
		{"/decide/batch", BatchRequest{}},
		{"/approximate", DecideRequest{Query: "broken("}},
	}
	for _, c := range cases {
		resp, body := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %+v: status = %d (%s), want 400", c.path, c.body, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON: %s", c.path, body)
		}
	}
}

// Constants in the namespace that freezing reserves are refused with a
// 400, in the query and in Σ: before, /decide answered yes with a
// witness in which such a constant had thawed into a variable.
func TestDecideRejectsFrozenConstants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, req := range []DecideRequest{
		{Query: "q :- E(x,y), E(x,'\x01c:w')."},
		{Query: "q :- E(x,y), E(y,z), E(z,x).", Deps: "E(x,y) -> F(x,'\x01c:y')."},
	} {
		resp, body := post(t, ts, "/decide", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "reserved frozen namespace") {
			t.Errorf("%+v: status = %d (%s), want 400 naming the reserved namespace", req, resp.StatusCode, body)
		}
	}
}

// /approximate returns an acyclic approximation and caches it under its
// own key space.
func TestApproximate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := DecideRequest{Query: "q :- E(x,y), E(y,z), E(z,x)"}
	resp, body := post(t, ts, "/approximate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar ApproxResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Approximation == "" || ar.Equivalent {
		t.Fatalf("unexpected approximation: %+v", ar)
	}
	r2, body2 := post(t, ts, "/approximate", req)
	if got := r2.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("second approximate: %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("approximate cache hit not byte-identical")
	}
}

// The prepared-Σ cache hoists the sticky rewriting once per (q, Σ):
// distinct budgets (distinct decision-cache keys) reuse the same
// prepared checker instead of re-rewriting.
func TestPreparedSigmaCacheReuse(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts, "/decide", DecideRequest{
			Query: stickyQuery, Deps: stickyDeps, Budget: 50 + i, SkipComplete: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	if n := srv.sigmas.Len(); n != 1 {
		t.Fatalf("sigma cache entries = %d, want 1", n)
	}
	v, ok := srv.sigmas.Get(mustDepsKey(t, stickyDeps))
	if !ok {
		t.Fatal("sigma entry missing")
	}
	se := v.(*sigmaEntry)
	if n := se.preps.Len(); n != 1 {
		t.Fatalf("prepared checkers = %d, want 1 (reused across budgets)", n)
	}
}

func mustDepsKey(t *testing.T, src string) string {
	t.Helper()
	u, err := parseUnit(&DecideRequest{Query: "q :- S0(x,y)", Deps: src}, "decide")
	if err != nil {
		t.Fatal(err)
	}
	return u.depsKey
}
