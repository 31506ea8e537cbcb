// Package server implements semacycd, the long-lived HTTP/JSON
// decision service over the SemAc(C) pipeline. It exposes
//
//	POST /decide           — one semantic-acyclicity decision
//	POST /decide/batch     — a batch of decisions sharing one deadline
//	POST /approximate      — a maximally contained acyclic approximation
//	POST /instances        — load a named database (indexed at load time)
//	GET  /instances        — list loaded instances
//	DELETE /instances/{name} — drop a loaded instance
//	PATCH /instances/{name}  — apply an atomic insert/delete batch
//	POST /evaluate         — evaluate a query on a loaded instance
//	                         (optionally over a what-if overlay)
//	GET  /healthz          — liveness + queue depth
//	GET  /metrics          — Prometheus text: serving histograms and
//	                         every obs counter
//	GET  /debug/traces     — recent request span trees
//
// Three properties make it suitable for a long-lived deployment:
//
//   - Caching. Decisions are cached by canonical key (query canonical
//     form × Σ rendering × budget knobs), and cache hits return the
//     stored response bytes verbatim — byte-identical to the fresh
//     response, which the determinism contract guarantees is
//     well-defined. A repeated request is served from this cache, so
//     it pays no decision work, the sticky UCQ rewriting included; a
//     decision that misses it builds what it needs from (q, Σ) itself.
//   - Deadlines. Every request carries a deadline (its own deadline_ms
//     or the server default) wired through context into
//     core.Options.Cancel, which every layer polls; cancellation
//     latency is bounded by one chase/rewriting step.
//   - Backpressure. Decision work runs on a bounded worker pool behind
//     a bounded queue. When the queue is full the request is shed
//     immediately with 429 + Retry-After instead of piling up
//     goroutines; during drain new work gets 503.
package server

import (
	"errors"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"semacyclic/internal/telemetry"
)

// retryAfter is the Retry-After header, in seconds, of a 429.
const retryAfter = "1"

// Config tunes the server. The zero value picks defaults sized to the
// host.
type Config struct {
	// Workers is the number of decision workers (default GOMAXPROCS).
	// Each worker runs one decision at a time, in its own goroutine: the
	// pool is the only concurrency on a decision's path.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted requests
	// (default 4×Workers). A full queue sheds with 429.
	QueueDepth int
	// CacheSize is the decision-cache capacity in entries (default
	// 4096). Entries hold marshaled response bytes.
	CacheSize int
	// PlanCacheSize bounds the compiled evaluation plans kept for
	// /evaluate (default 1024). A plan-cache hit skips the decision and
	// join-forest construction entirely.
	PlanCacheSize int
	// MaxInstances bounds the named-instance registry (default 64).
	MaxInstances int
	// MaxInstanceAtoms bounds the size of one loaded instance in atoms
	// (default 1_000_000); oversized loads are rejected with 413.
	MaxInstanceAtoms int
	// DefaultDeadline applies to requests that do not set deadline_ms.
	// 0 picks 10s; negative disables the default (requests without
	// deadline_ms then run unbounded).
	DefaultDeadline time.Duration
	// TraceRingSize bounds the /debug/traces ring of recent request
	// span trees (default 128).
	TraceRingSize int
	// SlowRequest, when positive, logs any request whose wall time
	// meets the threshold (endpoint, duration and span structure) to
	// SlowLogWriter. 0 disables the slow log.
	SlowRequest time.Duration
	// SlowLogWriter receives slow-request lines (default os.Stderr).
	SlowLogWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 1024
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 64
	}
	if c.MaxInstanceAtoms <= 0 {
		c.MaxInstanceAtoms = 1_000_000
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 128
	}
	if c.SlowLogWriter == nil {
		c.SlowLogWriter = os.Stderr
	}
	return c
}

// Server is the semacycd service. Create with New, mount Handler on an
// http.Server, and call Drain after http.Server.Shutdown for a
// graceful stop.
type Server struct {
	cfg Config
	mux *http.ServeMux

	queue   chan *task
	workers sync.WaitGroup

	// mu guards the admission state: inflight counts submitted tasks
	// not yet finished, draining rejects new submissions, and cond
	// signals Drain when inflight reaches zero.
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int  `sem:"nondet,guardedby(mu)"`
	draining bool `sem:"guardedby(mu)"`
	closeQ   sync.Once

	// decisions caches marshaled response bytes by the unit key
	// (setKey).
	decisions *lruCache
	// plans caches *core.Plan by planKey (decision knobs × method).
	plans *lruCache
	// reducers caches *core.ReducerState by reducerKey — the retained
	// semijoin-reducer state behind incremental /evaluate, one entry per
	// (plan, instance name).
	reducers *lruCache
	// instances is the named-database registry behind /instances.
	instances *registry

	// metrics owns the /metrics registry and the histogram handles.
	metrics *metricsSet
	// traces is the /debug/traces ring of recent request span trees.
	traces *telemetry.TraceRing
	// slowLog receives slow-request lines when cfg.SlowRequest > 0.
	slowLog io.Writer
}

type task struct {
	run  func()
	done chan struct{}
}

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	errQueueFull = errors.New("server: queue full")
	errDraining  = errors.New("server: draining")
)

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *task, cfg.QueueDepth),
		decisions: newLRU(cfg.CacheSize),
		plans:     newLRU(cfg.PlanCacheSize),
		reducers:  newLRU(cfg.PlanCacheSize),
		instances: newRegistry(cfg.MaxInstances, cfg.MaxInstanceAtoms),
		traces:    telemetry.NewTraceRing(cfg.TraceRingSize),
		slowLog:   cfg.SlowLogWriter,
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics = newMetricsSet(s)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /decide", s.instrument("/decide", s.serveDecision("decide", s.computeDecide)))
	mux.HandleFunc("POST /decide/batch", s.instrument("/decide/batch", s.serveBatch))
	mux.HandleFunc("POST /approximate", s.instrument("/approximate", s.serveDecision("approx", s.computeApprox)))
	mux.HandleFunc("POST /instances", s.instrument("/instances", s.serveInstanceLoad))
	mux.HandleFunc("GET /instances", s.serveInstanceList)
	mux.HandleFunc("DELETE /instances/{name}", s.serveInstanceDelete)
	mux.HandleFunc("PATCH /instances/{name}", s.instrument("/instances/patch", s.servePatch))
	mux.HandleFunc("POST /evaluate", s.instrument("/evaluate", s.serveEvaluate))
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("GET /debug/traces", s.serveTraces)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the resolved worker-pool size (after defaults).
func (s *Server) Workers() int { return s.cfg.Workers }

func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		t.run()
		close(t.done)
	}
}

// submit enqueues run on the worker pool without blocking: a full
// queue returns errQueueFull (the backpressure signal), a draining
// server errDraining. On success the returned channel closes when run
// has completed.
func (s *Server) submit(run func()) (<-chan struct{}, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.inflight++
	s.mu.Unlock()
	t := &task{done: make(chan struct{})}
	t.run = func() {
		defer s.finish()
		run()
	}
	select {
	case s.queue <- t:
		return t.done, nil
	default:
		s.finish()
		return nil, errQueueFull
	}
}

func (s *Server) finish() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Drain gracefully stops the pool: admission closes (new submissions
// see errDraining → 503), every queued and running task completes, and
// the workers exit. Call after http.Server.Shutdown has stopped new
// connections; Drain then guarantees no server goroutine outlives the
// call. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	for s.inflight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	// No submitter can hold a queue slot now: draining was set before
	// the wait, and inflight reached zero after it.
	s.closeQ.Do(func() { close(s.queue) })
	s.workers.Wait()
}
