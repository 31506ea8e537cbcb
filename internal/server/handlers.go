package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/telemetry"
)

// DecideRequest is the JSON body of /decide, one element of
// /decide/batch, and the body of /approximate. Parallelism never
// enters the cache key: the determinism contract makes the response
// identical at every value.
type DecideRequest struct {
	// Query is the conjunctive query, e.g. "q(x) :- R(x,y), S(y,x)".
	Query string `json:"query"`
	// Deps is the dependency set in the repository's tgd/egd syntax;
	// empty means no constraints.
	Deps string `json:"deps,omitempty"`
	// Budget caps candidates examined per layer (0 = default).
	Budget int `json:"budget,omitempty"`
	// MaxWitness overrides the class-derived small-query bound.
	MaxWitness int `json:"max_witness,omitempty"`
	// SkipComplete disables the exhaustive layer 4.
	SkipComplete bool `json:"skip_complete,omitempty"`
	// Parallelism bounds the decision's internal workers (0 = cores).
	Parallelism int `json:"parallelism,omitempty"`
	// DeadlineMS overrides the server's default deadline for this
	// request, in milliseconds. On /decide/batch only the batch-level
	// value applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DecideResponse is the JSON body of a /decide answer. It carries only
// deterministic fields (verdict, witness, layer, bound, and the stats
// fingerprint), so a cached response is byte-identical to the fresh
// computation it replays.
type DecideResponse struct {
	Verdict    string `json:"verdict"`
	Witness    string `json:"witness,omitempty"`
	Definitive bool   `json:"definitive"`
	Layer      string `json:"layer"`
	Bound      int    `json:"bound"`
	// Fingerprint is obs.Stats.DeterministicFingerprint — identical
	// across -j values and across cache hit/miss by contract.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// BatchRequest is the JSON body of /decide/batch.
type BatchRequest struct {
	Requests []DecideRequest `json:"requests"`
	// DeadlineMS bounds the WHOLE batch; per-item deadlines are
	// ignored.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchResult is one element of a /decide/batch response. Result holds
// the exact DecideResponse bytes (cached or fresh — byte-identical
// either way); Cached and Error are envelope metadata.
type BatchResult struct {
	Result json.RawMessage `json:"result,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse is the JSON body of a /decide/batch answer, aligned
// index-for-index with the request.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ApproxResponse is the JSON body of an /approximate answer.
type ApproxResponse struct {
	Approximation string `json:"approximation"`
	// Equivalent reports that q was semantically acyclic, making the
	// approximation an equivalent witness.
	Equivalent bool `json:"equivalent"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// cacheHeader reports hit/miss on single-decision responses.
const cacheHeader = "X-Semacycd-Cache"

const maxBodyBytes = 8 << 20

// maxQueryAtoms caps the atoms of one query. A request's query is keyed
// (CanonicalKey) on the handler goroutine, before its deadline exists,
// and keying grows faster than linearly: a chain query keys in 44 ms at
// 256 atoms and 26 s at 8,000, which the body limit alone admits. The
// largest decide-cold template has 27 atoms.
const maxQueryAtoms = 256

// maxBatchAtoms caps the atoms of all queries of one batch together.
const maxBatchAtoms = 16 * maxQueryAtoms

// decideUnit is a parsed, cache-keyed decision request.
type decideUnit struct {
	req *DecideRequest
	q   *cq.CQ
	set *deps.Set
	key string
}

// parseUnit validates and canonicalizes one request. kind prefixes the
// cache key so /decide and /approximate never collide.
func parseUnit(req *DecideRequest, kind string) (*decideUnit, error) {
	u, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	u.setKey(kind)
	return u, nil
}

// parseRequest parses and validates one request, rejecting a query
// over maxQueryAtoms before anything keys it.
func parseRequest(req *DecideRequest) (*decideUnit, error) {
	if strings.TrimSpace(req.Query) == "" {
		return nil, errors.New("missing query")
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if len(q.Atoms) > maxQueryAtoms {
		return nil, fmt.Errorf("query: %d atoms exceed the cap of %d atoms per query", len(q.Atoms), maxQueryAtoms)
	}
	set := &deps.Set{}
	if strings.TrimSpace(req.Deps) != "" {
		set, err = deps.Parse(req.Deps)
		if err != nil {
			return nil, fmt.Errorf("deps: %w", err)
		}
	}
	return &decideUnit{req: req, q: q, set: set}, nil
}

// setKey computes the unit's cache key from the query's canonical form
// and the set's rendering.
func (u *decideUnit) setKey(kind string) {
	u.key = kind + "\x00" + u.q.CanonicalKey() + "\x00" + u.set.String() + "\x00" +
		fmt.Sprintf("b=%d w=%d skip=%v", u.req.Budget, u.req.MaxWitness, u.req.SkipComplete)
}

// requestCtx derives the request's deadline context: deadline_ms when
// set, else the server default (negative default = none).
func (s *Server) requestCtx(parent context.Context, ms int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// options assembles the core.Options for a unit, wiring the deadline
// channel and the request's span recorder.
func options(u *decideUnit, cancel <-chan struct{}, rec *telemetry.Recorder) core.Options {
	return core.Options{
		SearchBudget:       u.req.Budget,
		MaxWitnessSize:     u.req.MaxWitness,
		SkipCompleteSearch: u.req.SkipComplete,
		Parallelism:        u.req.Parallelism,
		Cancel:             cancel,
		Trace:              rec,
	}
}

// computeDecide runs one decision on the calling (worker) goroutine
// and returns the marshaled response bytes. The per-layer wall times
// land in the layer histograms here; they never enter the response
// (DecideResponse carries only deterministic fields).
func (s *Server) computeDecide(ctx context.Context, u *decideUnit) ([]byte, error) {
	res, err := core.Decide(u.q, u.set, options(u, ctx.Done(), traceRec(ctx)))
	if err != nil {
		return nil, err
	}
	s.metrics.observeLayers(res.Stats.Layers)
	resp := DecideResponse{
		Verdict:     res.Verdict.String(),
		Definitive:  res.Definitive,
		Layer:       res.Layer,
		Bound:       res.Bound,
		Fingerprint: res.Stats.DeterministicFingerprint(),
	}
	if res.Witness != nil {
		resp.Witness = res.Witness.String()
	}
	return json.Marshal(&resp)
}

// computeApprox runs one approximation on the calling goroutine.
func (s *Server) computeApprox(ctx context.Context, u *decideUnit) ([]byte, error) {
	ap, err := core.Approximate(u.q, u.set, options(u, ctx.Done(), traceRec(ctx)))
	if err != nil {
		return nil, err
	}
	return json.Marshal(&ApproxResponse{Approximation: ap.Query.String(), Equivalent: ap.Equivalent})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeBody emits stored response bytes verbatim with the cache
// verdict in the header — the body bytes are identical on hit and
// miss.
func writeBody(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set(cacheHeader, "hit")
	} else {
		w.Header().Set(cacheHeader, "miss")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// reject maps admission errors: queue full → 429 + Retry-After,
// draining → 503.
func (s *Server) reject(w http.ResponseWriter, err error) {
	if errors.Is(err, errQueueFull) {
		obs.ServerShed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	}
	writeError(w, http.StatusServiceUnavailable, "draining")
}

// writeComputeErr maps decision errors: cancellation → 504, anything
// else (validation, class errors) → 400.
func writeComputeErr(w http.ResponseWriter, err error) {
	if errors.Is(err, stop.ErrCancelled) {
		obs.ServerCancelled.Add(1)
		writeError(w, http.StatusGatewayTimeout, "cancelled: deadline exceeded")
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// serveDecision returns the handler of a cached single-decision
// endpoint: /decide and /approximate differ only in the kind that keys
// their cache entries and in the compute function.
func (s *Server) serveDecision(kind string, compute func(context.Context, *decideUnit) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req DecideRequest
		if !readJSON(w, r, &req) {
			return
		}
		obs.ServerRequests.Add(1)
		u, err := parseUnit(&req, kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		rec := traceRec(r.Context())
		if body, ok := s.decisions.Get(u.key); ok {
			obs.ServerCacheHits.Add(1)
			rec.Event("cache:decision:hit")
			writeBody(w, body.([]byte), true)
			return
		}
		rec.Event("cache:decision:miss")
		ctx, cancel := s.requestCtx(r.Context(), req.DeadlineMS)
		defer cancel()
		var body []byte
		var derr error
		done, err := s.submit(func() { body, derr = compute(ctx, u) })
		if err != nil {
			s.reject(w, err)
			return
		}
		<-done
		if derr != nil {
			writeComputeErr(w, derr)
			return
		}
		s.decisions.Add(u.key, body)
		writeBody(w, body, false)
	}
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !readJSON(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	obs.ServerRequests.Add(int64(len(breq.Requests)))
	rec := traceRec(r.Context())
	n := len(breq.Requests)
	units := make([]*decideUnit, n)
	results := make([]BatchResult, n)
	// Parse every request before keying any, so that a batch whose
	// queries together exceed maxBatchAtoms is refused unkeyed.
	atoms := 0
	for i := range breq.Requests {
		u, err := parseRequest(&breq.Requests[i])
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		if atoms += len(u.q.Atoms); atoms > maxBatchAtoms {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch: its queries hold more than the cap of %d atoms per batch", maxBatchAtoms))
			return
		}
		units[i] = u
	}
	var pending []int
	for i, u := range units {
		if u == nil {
			continue
		}
		u.setKey("decide")
		if body, ok := s.decisions.Get(u.key); ok {
			obs.ServerCacheHits.Add(1)
			rec.Event("cache:decision:hit")
			results[i].Result = json.RawMessage(body.([]byte))
			results[i].Cached = true
			continue
		}
		rec.Event("cache:decision:miss")
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}

	// The whole batch occupies ONE queue slot and runs sequentially on
	// one worker under the batch deadline; items left when the deadline
	// fires report "cancelled" individually.
	ctx, cancel := s.requestCtx(r.Context(), breq.DeadlineMS)
	defer cancel()
	cancelledAny := false
	done, err := s.submit(func() {
		for _, i := range pending {
			u := units[i]
			if ctx.Err() != nil {
				results[i].Error = "cancelled: deadline exceeded"
				cancelledAny = true
				continue
			}
			body, derr := s.computeDecide(ctx, u)
			if derr != nil {
				if errors.Is(derr, stop.ErrCancelled) {
					results[i].Error = "cancelled: deadline exceeded"
					cancelledAny = true
				} else {
					results[i].Error = derr.Error()
				}
				continue
			}
			s.decisions.Add(u.key, body)
			results[i].Result = json.RawMessage(body)
		}
	})
	if err != nil {
		s.reject(w, err)
		return
	}
	<-done
	if cancelledAny {
		obs.ServerCancelled.Add(1)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	inflight := s.inflight
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	//semalint:allow dettaint(health endpoint reports live operational state — queue depth and inflight are nondeterministic on purpose)
	writeJSON(w, status, map[string]any{
		"status":    state,
		"workers":   s.cfg.Workers,
		"queue":     len(s.queue),
		"inflight":  inflight,
		"cached":    s.decisions.Len(),
		"instances": s.instances.len(),
	})
}
