package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"semacyclic/internal/obs"
	"semacyclic/internal/telemetry"
)

// traceHeaderName is the opt-in trace-echo header: a request carrying
// it (any value) gets its span tree back, compact JSON, in the same
// header of the response. The echo lives in a *header* so the response
// *body* stays byte-identical across cache hit/miss and traced/untraced
// — the serving determinism contract covers bodies.
const traceHeaderName = "X-Semacycd-Trace"

// recKey carries the request's span recorder through the context chain
// (instrument installs it; requestCtx-derived deadline contexts inherit
// it).
type recKey struct{}

// traceRec extracts the request recorder, nil when the request is not
// being traced through an instrumented route.
func traceRec(ctx context.Context) *telemetry.Recorder {
	rec, _ := ctx.Value(recKey{}).(*telemetry.Recorder)
	return rec
}

// Metric family names and help strings.
const (
	mRequestDur  = "semacycd_request_duration_seconds"
	hRequestDur  = "request wall time by endpoint"
	mLayerDur    = "semacycd_decision_layer_duration_seconds"
	hLayerDur    = "per-decision-layer wall time (core, unsatisfiable, quotient, chase-subset, shape, complete)"
	mDecisions   = "semacycd_decisions_total"
	hDecisions   = "computed decisions (decision-cache misses) by verdict and settling layer"
	mEvalDur     = "semacycd_evaluate_duration_seconds"
	hEvalDur     = "plan execution wall time by evaluation method"
	mCacheHits   = "semacycd_cache_hits_total"
	hCacheHits   = "cache lookups served from the cache"
	mCacheMisses = "semacycd_cache_misses_total"
	hCacheMisses = "cache lookups that missed"
	mCacheEvict  = "semacycd_cache_evictions_total"
	hCacheEvict  = "entries evicted under capacity pressure"
	mCacheAge    = "semacycd_cache_evicted_age_ns_total"
	hCacheAge    = "summed residency age of evicted entries in nanoseconds"
	mCacheLen    = "semacycd_cache_entries"
	hCacheLen    = "live entries per cache"
	mQueueDepth  = "semacycd_queue_depth"
	hQueueDepth  = "admitted-but-unstarted requests in the worker queue"
	mInflight    = "semacycd_inflight_requests"
	hInflight    = "requests admitted and not yet finished"
	mInstances   = "semacycd_instances"
	hInstances   = "named database instances loaded"
	mReducerDec  = "semacycd_reducer_decisions_total"
	hReducerDec  = "incremental evaluations by reducer-state decision"
	mDeltaAtoms  = "semacycd_delta_atoms_total"
	hDeltaAtoms  = "effective atoms mutated by PATCH batches"
	mEpochChurn  = "semacycd_epoch_churn_total"
	hEpochChurn  = "instance epochs advanced by PATCH batches"
	mPatches     = "semacycd_patches_total"
	hPatches     = "successful PATCH /instances/{name} batches"
	mOverlayEval = "semacycd_overlay_evaluations_total"
	hOverlayEval = "what-if evaluations over copy-on-write overlays"
)

// metricsSet owns the server's telemetry registry and the handles the
// request path observes through.
type metricsSet struct {
	reg *telemetry.Registry
}

// newMetricsSet builds the registry and registers the scrape-time
// series: per-cache hit/miss/eviction/age counters, queue and registry
// gauges, and every process-global obs counter (sanitized to Prometheus
// naming).
func newMetricsSet(s *Server) *metricsSet {
	m := &metricsSet{reg: telemetry.NewRegistry()}
	caches := []struct {
		name  string
		cache *lruCache
	}{
		{"decision", s.decisions},
		{"plan", s.plans},
	}
	for _, c := range caches {
		ls := telemetry.Labels("cache", c.name)
		m.reg.CounterFunc(mCacheHits, hCacheHits, ls, c.cache.Hits)
		m.reg.CounterFunc(mCacheMisses, hCacheMisses, ls, c.cache.Misses)
		m.reg.CounterFunc(mCacheEvict, hCacheEvict, ls, c.cache.Evictions)
		m.reg.CounterFunc(mCacheAge, hCacheAge, ls, c.cache.EvictedAgeNS)
		cache := c.cache
		m.reg.GaugeFunc(mCacheLen, hCacheLen, ls, func() int64 { return int64(cache.Len()) })
	}
	m.reg.GaugeFunc(mQueueDepth, hQueueDepth, "", func() int64 { return int64(len(s.queue)) })
	m.reg.GaugeFunc(mInflight, hInflight, "", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.inflight)
	})
	m.reg.GaugeFunc(mInstances, hInstances, "", func() int64 { return int64(s.instances.len()) })
	decisions := []struct {
		label string
		c     *obs.Counter
	}{
		{"cold", obs.ServerReducerCold},
		{"reused", obs.ServerReducerReused},
		{"repaired", obs.ServerReducerRepaired},
		{"recomputed", obs.ServerReducerRecomputed},
		{"mixed", obs.ServerReducerMixed},
	}
	for _, d := range decisions {
		m.reg.CounterFunc(mReducerDec, hReducerDec, telemetry.Labels("decision", d.label), d.c.Load)
	}
	m.reg.CounterFunc(mDeltaAtoms, hDeltaAtoms, telemetry.Labels("op", "insert"), obs.ServerDeltaInserts.Load)
	m.reg.CounterFunc(mDeltaAtoms, hDeltaAtoms, telemetry.Labels("op", "delete"), obs.ServerDeltaDeletes.Load)
	m.reg.CounterFunc(mEpochChurn, hEpochChurn, "", obs.ServerEpochChurn.Load)
	m.reg.CounterFunc(mPatches, hPatches, "", obs.ServerPatches.Load)
	m.reg.CounterFunc(mOverlayEval, hOverlayEval, "", obs.ServerOverlayEvals.Load)
	for _, c := range obs.All() {
		c := c
		m.reg.CounterFunc(promCounterName(c.Name()), "process-global counter "+c.Name(), "", c.Load)
	}
	return m
}

// promCounterName maps an obs counter name ("server.cache_hits") to
// Prometheus naming ("server_cache_hits_total").
func promCounterName(name string) string {
	return strings.ReplaceAll(name, ".", "_") + "_total"
}

// requestHist returns the per-endpoint latency histogram handle.
func (m *metricsSet) requestHist(endpoint string) *telemetry.Histogram {
	return m.reg.Histogram(mRequestDur, hRequestDur, telemetry.Labels("endpoint", endpoint))
}

// observeLayers feeds one decision's per-layer wall times into the
// layer histograms. The layer label set is small and fixed (the six
// pipeline layers: core, unsatisfiable, quotient, chase-subset, shape
// and complete), so the registry lookup cost per decision is a few
// short mutex sections.
func (m *metricsSet) observeLayers(layers []obs.LayerStats) {
	for _, l := range layers {
		m.reg.Histogram(mLayerDur, hLayerDur, telemetry.Labels("layer", l.Name)).Observe(l.WallNS)
	}
}

// observeVerdict counts one computed decision by its verdict and the
// layer that settled it. Only computed decisions reach it: a
// decision-cache hit neither counts nor allocates.
func (m *metricsSet) observeVerdict(verdict, layer string) {
	m.reg.Counter(mDecisions, hDecisions, telemetry.Labels("verdict", verdict, "layer", layer)).Add(1)
}

// observeEval feeds one plan execution into the per-method histogram.
func (m *metricsSet) observeEval(method string, wall telemetry.DurationNS) {
	m.reg.Histogram(mEvalDur, hEvalDur, telemetry.Labels("method", method)).Observe(wall)
}

// instrument wraps a route handler with the request telemetry: a span
// recorder in the request context, the per-endpoint latency histogram,
// the trace ring, the opt-in header echo, and the slow-request log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.requestHist(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := telemetry.StartTimer()
		rec := telemetry.NewRecorder("request:" + endpoint)
		r = r.WithContext(context.WithValue(r.Context(), recKey{}, rec))
		if r.Header.Get(traceHeaderName) != "" {
			w = &traceEchoWriter{ResponseWriter: w, rec: rec}
		}
		h(w, r)
		ns := sw.ElapsedNS()
		hist.Observe(ns)
		root := rec.Finish()
		s.traces.Add(&telemetry.TraceEntry{Endpoint: endpoint, DurNS: ns, Root: root})
		if thr := s.cfg.SlowRequest; thr > 0 && ns.Duration() >= thr {
			fmt.Fprintf(s.slowLog, "semacycd: slow request %s took %v (threshold %v): %s\n",
				endpoint, ns.Duration(), thr, root.Structure())
		}
	}
}

// traceHeaderMaxBytes bounds the echoed trace header. A /decide/batch
// with many items grows the span tree linearly, and proxies / HTTP2
// peers reject oversized header blocks (8 KB is under the common 16 KB
// SETTINGS_MAX_HEADER_LIST_SIZE default), so past the cap the echo
// degrades to the deterministic structure string; the full tree is
// still available from /debug/traces.
const traceHeaderMaxBytes = 8 << 10

// traceEchoWriter injects the span-tree snapshot into the response
// headers at first write, when the spans recorded so far (the whole
// handler's work) are in the tree but the headers are still open.
type traceEchoWriter struct {
	http.ResponseWriter
	rec   *telemetry.Recorder
	wrote bool
}

func (t *traceEchoWriter) setTrace() {
	if !t.wrote {
		t.wrote = true
		t.Header().Set(traceHeaderName, traceHeaderValue(t.rec))
	}
}

// traceHeaderValue renders the span tree for the echo header, capped at
// traceHeaderMaxBytes: full JSON when it fits, otherwise a stub around
// the durations-free structure string, itself hard-truncated so the
// header is bounded no matter the batch size.
func traceHeaderValue(rec *telemetry.Recorder) string {
	v := rec.SnapshotJSON()
	if len(v) <= traceHeaderMaxBytes {
		return string(v)
	}
	s := rec.SnapshotStructure()
	const slack = 64 // stub framing + worst-case quote escaping headroom
	if len(s) > traceHeaderMaxBytes-slack {
		s = s[:traceHeaderMaxBytes-slack] + "..."
	}
	stub, _ := json.Marshal(map[string]any{"truncated": true, "structure": s})
	return string(stub)
}

func (t *traceEchoWriter) WriteHeader(code int) {
	t.setTrace()
	t.ResponseWriter.WriteHeader(code)
}

func (t *traceEchoWriter) Write(b []byte) (int, error) {
	t.setTrace()
	return t.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher so a traced request keeps the streaming
// capability an untraced one has; the trace header is set first since a
// flush commits the header block.
func (t *traceEchoWriter) Flush() {
	t.setTrace()
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serveMetrics renders the registry in Prometheus text exposition
// format: per-endpoint and per-layer latency histograms, cache
// hit/miss/eviction series, queue gauges and the obs counters.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//semalint:allow dettaint(metrics exposition is wall-clock data by design; the determinism contract covers verdicts, not telemetry)
	_ = s.metrics.reg.WritePrometheus(w)
}

// serveTraces dumps the trace ring (most recent request span trees,
// newest first) as JSON.
func (s *Server) serveTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//semalint:allow dettaint(trace dump is wall-clock data by design; spans exist to expose latency)
	_ = json.NewEncoder(w).Encode(map[string]any{"traces": s.traces.Entries()})
}
