package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"semacyclic/internal/telemetry"
)

// fetch GETs a path and returns the body.
func fetch(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

// waitForBody polls the path until the body contains every needle (the
// post-handler telemetry — histogram observe, trace-ring push — runs
// after the response is written, so an immediate scrape can race it).
func waitForBody(t *testing.T, ts *httptest.Server, path string, needles ...string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var body []byte
	for {
		_, body = fetch(t, ts, path)
		missing := ""
		for _, n := range needles {
			if !strings.Contains(string(body), n) {
				missing = n
				break
			}
		}
		if missing == "" {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never contained %q; last body:\n%s", path, missing, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// /metrics serves the per-endpoint and per-layer histograms, the cache
// hit/miss/eviction series and the process counters in Prometheus text
// format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := DecideRequest{Query: "q(x) :- R(x,y), S(y,x), T(x,y)", Deps: "R(x,y) -> S(y,x)"}
	if resp, body := post(t, ts, "/decide", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide status = %d: %s", resp.StatusCode, body)
	}
	post(t, ts, "/decide", req) // cache hit

	resp, _ := fetch(t, ts, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body := string(waitForBody(t, ts, "/metrics",
		`semacycd_request_duration_seconds_bucket{endpoint="/decide",le="+Inf"}`,
		`semacycd_decision_layer_duration_seconds_bucket{layer="core",le="+Inf"}`,
	))
	for _, want := range []string{
		"# TYPE semacycd_request_duration_seconds histogram",
		`semacycd_request_duration_seconds_count{endpoint="/decide"}`,
		`semacycd_cache_hits_total{cache="decision"} 1`,
		`semacycd_cache_misses_total{cache="decision"} 1`,
		`semacycd_cache_entries{cache="decision"} 1`,
		"server_requests_total",
		"semacyclic_decisions_total",
		"semacycd_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No decision checker is cached across requests any more.
	for _, gone := range []string{`cache="sigma"`, `cache="prepared"`} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still serves a %s series", gone)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", body)
	}
}

// A request carrying the trace header gets its span tree echoed back in
// the response header — and only there: the body stays byte-identical
// to an untraced request's.
func TestTraceHeaderEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	reqBody := `{"query":"q(x) :- R(x,y), S(y,x), T(x,y)", "deps":"R(x,y) -> S(y,x)"}`

	_, plain := post(t, ts, "/decide", json.RawMessage(reqBody))

	hreq, err := http.NewRequest("POST", ts.URL+"/decide", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(traceHeaderName, "1")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	trace := resp.Header.Get(traceHeaderName)
	if trace == "" {
		t.Fatal("no trace echoed in response header")
	}
	if !json.Valid([]byte(trace)) {
		t.Fatalf("trace header is not valid JSON: %s", trace)
	}
	for _, want := range []string{`"name":"request:/decide"`, "cache:decision"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace %s missing %q", trace, want)
		}
	}
	var raw json.RawMessage
	if err := json.Unmarshal(plain, &raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, buf.Bytes()) {
		t.Fatalf("traced body differs from untraced:\n plain  %s\n traced %s", plain, buf.Bytes())
	}
}

// The trace echo header is bounded: a span tree whose JSON exceeds
// traceHeaderMaxBytes (e.g. a large /decide/batch) degrades to a
// truncated-structure stub instead of an arbitrarily large header that
// proxies or HTTP2 header limits would reject.
func TestTraceHeaderCapped(t *testing.T) {
	rec := telemetry.NewRecorder("request:/decide/batch")
	for i := 0; i < 2000; i++ {
		rec.Event("item:decide")
	}
	v := traceHeaderValue(rec)
	if len(v) > traceHeaderMaxBytes {
		t.Fatalf("capped header is %d bytes, exceeds cap %d", len(v), traceHeaderMaxBytes)
	}
	if !json.Valid([]byte(v)) {
		t.Fatalf("capped header is not valid JSON: %.120s", v)
	}
	if !strings.Contains(v, `"truncated":true`) {
		t.Fatalf("expected truncation stub, got: %.120s", v)
	}

	small := telemetry.NewRecorder("request:/decide")
	small.Event("cache:decision")
	sv := traceHeaderValue(small)
	if strings.Contains(sv, `"truncated"`) || !json.Valid([]byte(sv)) {
		t.Fatalf("small tree should echo full JSON: %s", sv)
	}
}

// An untraced request gets no trace header.
func TestNoTraceHeaderByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, _ := post(t, ts, "/decide", DecideRequest{Query: "q(x) :- R(x,x)"})
	if got := resp.Header.Get(traceHeaderName); got != "" {
		t.Fatalf("unexpected trace header on untraced request: %s", got)
	}
}

// /debug/traces serves the ring of recent span trees, newest first.
func TestDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TraceRingSize: 4})
	post(t, ts, "/decide", DecideRequest{Query: "q(x) :- R(x,y), S(y,x)"})
	body := waitForBody(t, ts, "/debug/traces", `"endpoint":"/decide"`)
	var parsed struct {
		Traces []struct {
			ID       int64           `json:"id"`
			Endpoint string          `json:"endpoint"`
			Root     json.RawMessage `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("bad /debug/traces body: %v\n%s", err, body)
	}
	if len(parsed.Traces) == 0 || parsed.Traces[0].Endpoint != "/decide" {
		t.Fatalf("unexpected traces: %s", body)
	}
	if !strings.Contains(string(parsed.Traces[0].Root), `"name":"decide"`) {
		t.Fatalf("trace root missing decide span: %s", parsed.Traces[0].Root)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slow log writes from
// the handler goroutine after the response is already on the wire.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// With -slow-ms set, requests over the threshold log their endpoint and
// span structure.
func TestSlowRequestLog(t *testing.T) {
	buf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Workers: 2, SlowRequest: time.Nanosecond, SlowLogWriter: buf})
	post(t, ts, "/decide", DecideRequest{Query: "q(x) :- R(x,y), S(y,x)"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := buf.String()
		if strings.Contains(got, "slow request /decide") && strings.Contains(got, "request:/decide(") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow log never appeared; got: %q", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
