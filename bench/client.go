package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"semacyclic/internal/telemetry"
)

// traceHeader is semacycd's opt-in span-tree echo header.
const traceHeader = "X-Semacycd-Trace"

// client is one closed-loop client. Each HTTP client owns one
// keep-alive connection; a library client calls into the process.
type client struct {
	id     int
	base   string
	hc     *http.Client
	tr     *http.Transport
	traced bool
	record bool // inside the timed window
	n      int  // ops started so far: the id of the next op

	// window times the running window of length windowLen; slices
	// counts the ops completed in each windowSlices-th of it.
	window    telemetry.Stopwatch
	windowLen time.Duration
	slices    []int

	attempted, failed int
	failures          []string

	// The window record.
	lat    map[string][]float64 // op latencies in ns, per op type
	tally  map[string]float64
	selfNS map[string]float64
	spanNS float64

	truncated int
	kept      []opTrace // the first keptSpans op span trees of a traced pass
}

// keptSpans bounds the op span trees a traced client keeps for the span
// file, so that a fast workload's traced pass stays within tens of MB.
const keptSpans = 2000

// opTrace is one traced op's span tree, as written to the span file.
type opTrace struct {
	Client int             `json:"client"`
	Op     int             `json:"op"`
	Kind   string          `json:"kind"`
	Span   *telemetry.Span `json:"span"`
}

func newClient(id int, base string, traced bool) *client {
	c := &client{
		id:     id,
		base:   base,
		traced: traced,
		lat:    map[string][]float64{},
		tally:  map[string]float64{},
		selfNS: map[string]float64{},
	}
	if base != "" {
		c.tr = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		c.hc = &http.Client{Transport: c.tr}
	}
	return c
}

func (c *client) close() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, err.Error())
	}
}

// add adds v to a window tally; ops outside the window add nothing.
func (c *client) add(name string, v float64) {
	if c.record {
		c.tally[name] += v
	}
}

// call sends one HTTP op and returns the response body; a non-2xx
// status is an error. In a traced pass the op gets a span of its own,
// under which the server's echoed request span tree is grafted.
func (c *client) call(kind, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	var rec *telemetry.Recorder
	if c.traced {
		rec = telemetry.NewRecorder("op:" + kind)
		req.Header.Set(traceHeader, "1")
	}
	sw := telemetry.StartTimer()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ns := sw.ElapsedNS()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	var server *telemetry.Span
	if rec != nil {
		server = &telemetry.Span{}
		if err := json.Unmarshal([]byte(resp.Header.Get(traceHeader)), server); err != nil {
			return nil, fmt.Errorf("%s %s: trace header: %w", method, path, err)
		}
		if server.Name == "" { // the echo degraded to a stub: too large
			server = nil
			if c.record {
				c.truncated++
			}
		}
	}
	c.done(kind, ns, rec, server)
	return out, nil
}

// lib times one library op and returns its latency; fn receives the
// op's span recorder, nil when the pass is untraced.
func (c *client) lib(kind string, fn func(rec *telemetry.Recorder) error) (telemetry.DurationNS, error) {
	var rec *telemetry.Recorder
	if c.traced {
		rec = telemetry.NewRecorder("op:" + kind)
	}
	sw := telemetry.StartTimer()
	if err := fn(rec); err != nil {
		return 0, err
	}
	ns := sw.ElapsedNS()
	c.done(kind, ns, rec, nil)
	return ns, nil
}

// done records a completed op: its latency and, when traced, its span
// tree's self times.
func (c *client) done(kind string, ns telemetry.DurationNS, rec *telemetry.Recorder, graft *telemetry.Span) {
	if !c.record {
		return
	}
	c.lat[kind] = append(c.lat[kind], float64(ns))
	if c.slices == nil {
		c.slices = make([]int, windowSlices)
	}
	c.slices[min(windowSlices-1, int(windowSlices*c.window.Elapsed()/c.windowLen))]++
	if rec == nil {
		return
	}
	root := rec.Finish()
	if graft != nil {
		root.Children = append(root.Children, graft)
	}
	c.spanNS += float64(root.DurNS)
	addSelf(c.selfNS, root)
	if len(c.kept) < keptSpans {
		c.kept = append(c.kept, opTrace{Client: c.id, Op: c.n, Kind: kind, Span: root})
	}
}

// addSelf adds every span's self time — its duration minus the part
// its children cover — under the span's metric name.
func addSelf(dst map[string]float64, s *telemetry.Span) {
	var children telemetry.DurationNS
	for _, ch := range s.Children {
		children += ch.DurNS
		addSelf(dst, ch)
	}
	if self := s.DurNS - children; self > 0 {
		dst[spanMetric(s.Name)] += float64(self)
	}
}

// spanMetric maps a span name to its self-time metric: the benchmark's
// op spans to self.client, semacycd's request spans to self.server,
// and "layer:quotient" to self.layer.quotient and so on. Unknown names
// land in self.other.
func spanMetric(name string) string {
	switch {
	case strings.HasPrefix(name, "op:"):
		return "self.client"
	case strings.HasPrefix(name, "request:"):
		return "self.server"
	}
	m := "self." + strings.ReplaceAll(name, ":", ".")
	if _, ok := units[m]; ok {
		return m
	}
	return "self.other"
}

// promName is the /metrics name semacycd exports a process-global obs
// counter under ("semacyclic.hom.backtracks" becomes
// "semacyclic_hom_backtracks_total").
func promName(obsName string) string {
	return strings.ReplaceAll(obsName, ".", "_") + "_total"
}

// scrape reads semacycd's /metrics exposition into a map from sample
// name (with labels) to value; histogram buckets are skipped.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}
