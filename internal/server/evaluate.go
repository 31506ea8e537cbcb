package server

import (
	"errors"
	"fmt"
	"net/http"

	"semacyclic/internal/core"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
)

// EvaluateRequest is the JSON body of POST /evaluate: decide semantic
// acyclicity of (query, deps), compile an evaluation plan, and run it
// against a registered instance. The decision knobs (budget,
// max_witness, skip_complete) mirror /decide and enter the plan-cache
// key; deadline_ms and parallelism are per-request execution knobs and
// do not.
type EvaluateRequest struct {
	// Query is the conjunctive query to evaluate.
	Query string `json:"query"`
	// Deps is the dependency set the instance is promised to satisfy;
	// empty means no constraints.
	Deps string `json:"deps,omitempty"`
	// Instance names a database previously loaded via POST /instances.
	Instance string `json:"instance"`
	// Method selects the evaluation procedure: "auto" (default),
	// "yannakakis", "guarded-game", "egd-game" or "generic". See
	// core.CompilePlan for the contract of each.
	Method string `json:"method,omitempty"`
	// Budget / MaxWitness / SkipComplete / Parallelism tune the
	// underlying decision exactly as on /decide.
	Budget       int  `json:"budget,omitempty"`
	MaxWitness   int  `json:"max_witness,omitempty"`
	SkipComplete bool `json:"skip_complete,omitempty"`
	Parallelism  int  `json:"parallelism,omitempty"`
	// DeadlineMS bounds plan compilation plus execution.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Overlay, when present, evaluates a what-if delta layered over the
	// named instance without mutating it: answers are computed as if the
	// overlay's deletes-then-inserts had been applied, the stored
	// instance (and every concurrent request) sees nothing.
	Overlay *OverlayRequest `json:"overlay,omitempty"`
}

// OverlayRequest is the optional what-if block of POST /evaluate, in
// the same ground-atom syntax and with the same net semantics as
// PATCH /instances.
type OverlayRequest struct {
	Insert string `json:"insert,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// EvaluateResponse is the JSON body of a /evaluate answer.
type EvaluateResponse struct {
	// Method is the evaluation method the plan selected.
	Method string `json:"method"`
	// Verdict and Layer record the semantic-acyclicity decision behind
	// the method selection ("unknown" for methods that skip it).
	Verdict string `json:"verdict"`
	Layer   string `json:"layer,omitempty"`
	// Witness is the acyclic reformulation evaluated by the
	// "yannakakis" method.
	Witness string `json:"witness,omitempty"`
	// Free names the answer columns; Answers holds the answer tuples
	// in canonical sorted order (a Boolean query answers [[]] for true,
	// [] for false).
	Free    []string   `json:"free"`
	Answers [][]string `json:"answers"`
	// PlanCached reports whether the compiled plan came from the plan
	// cache (a hit skips decide + GYO entirely).
	PlanCached bool `json:"plan_cached"`
	// Epoch is the instance epoch the evaluation ran at (the base
	// epoch, for overlay runs); correlate with PATCH responses.
	Epoch uint64 `json:"epoch"`
	// Overlay reports a what-if evaluation: the answers reflect the
	// request's overlay delta, the stored instance is untouched.
	Overlay bool `json:"overlay,omitempty"`
	// Reducer labels how the retained semijoin-reducer state was used
	// on a stateful (yannakakis, non-overlay) evaluation: "cold" first
	// run, "reused" verbatim, "repaired" from the delta, "recomputed",
	// or a per-tree "mixed". Empty for stateless methods and overlays.
	Reducer string `json:"reducer,omitempty"`
	// Stats is the per-evaluation work snapshot.
	Stats *obs.EvalStats `json:"stats,omitempty"`
}

// planKey derives the plan-cache key for a parsed unit and method.
// Parallelism and deadline stay out: the plan is identical at every
// value of each.
func planKey(u *decideUnit, method string) string {
	return "plan\x00" + u.key + "\x00m=" + method
}

// reducerKey derives the reducer-state cache key: one retained state
// per (plan, instance name). A reloaded instance under the same name
// leaves a stale state behind, whatever epoch the new instance
// reaches: its view's relations share no family with the state's, so
// ExecuteIncremental recomputes, and a stale entry costs time, never
// correctness (TestEvaluateReducerAfterReload).
func reducerKey(pk, instanceName string) string {
	return pk + "\x00i=" + instanceName
}

// reducerDecision labels how an incremental run used the previous
// state, from the per-tree split in its stats.
func reducerDecision(prev *core.ReducerState, st *obs.EvalStats) string {
	if prev == nil {
		return "cold"
	}
	switch {
	case st.TreesRepaired == 0 && st.TreesRecomputed == 0:
		return "reused"
	case st.TreesReused == 0 && st.TreesRecomputed == 0:
		return "repaired"
	case st.TreesReused == 0 && st.TreesRepaired == 0:
		return "recomputed"
	}
	return "mixed"
}

// reducerCounter maps a decision label to its obs counter.
func reducerCounter(decision string) *obs.Counter {
	switch decision {
	case "cold":
		return obs.ServerReducerCold
	case "reused":
		return obs.ServerReducerReused
	case "repaired":
		return obs.ServerReducerRepaired
	case "recomputed":
		return obs.ServerReducerRecomputed
	}
	return obs.ServerReducerMixed
}

// plan returns the compiled evaluation plan for the unit, from the
// cache when possible. Must run on a worker goroutine: compilation
// contains a full decision.
func (s *Server) plan(u *decideUnit, method string, cancel <-chan struct{}, rec *telemetry.Recorder) (*core.Plan, bool, error) {
	pk := planKey(u, method)
	if v, ok := s.plans.Get(pk); ok {
		obs.ServerPlanCacheHits.Add(1)
		rec.Event("cache:plan:hit")
		return v.(*core.Plan), true, nil
	}
	rec.Event("cache:plan:miss")
	p, err := core.CompilePlan(u.q, u.set, options(u, cancel, rec), method)
	if err != nil {
		return nil, false, err // a cancelled compile is not cached
	}
	s.plans.Add(pk, p)
	return p, false, nil
}

func (s *Server) serveEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !readJSON(w, r, &req) {
		return
	}
	obs.ServerRequests.Add(1)
	dreq := DecideRequest{
		Query:        req.Query,
		Deps:         req.Deps,
		Budget:       req.Budget,
		MaxWitness:   req.MaxWitness,
		SkipComplete: req.SkipComplete,
		Parallelism:  req.Parallelism,
		DeadlineMS:   req.DeadlineMS,
	}
	u, err := parseUnit(&dreq, "decide")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	method := req.Method
	if method == "" {
		method = core.MethodAuto
	}
	var ovIns, ovDel []instance.Atom
	if req.Overlay != nil {
		if ovIns, err = instance.ParseAtoms(req.Overlay.Insert); err != nil {
			writeError(w, http.StatusBadRequest, "overlay insert: "+err.Error())
			return
		}
		if ovDel, err = instance.ParseAtoms(req.Overlay.Delete); err != nil {
			writeError(w, http.StatusBadRequest, "overlay delete: "+err.Error())
			return
		}
		if len(ovIns) == 0 && len(ovDel) == 0 {
			writeError(w, http.StatusBadRequest, "empty overlay: provide insert and/or delete atoms")
			return
		}
	}
	entry, ok := s.instances.get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q (load it via POST /instances)", req.Instance))
		return
	}

	ctx, cancel := s.requestCtx(r.Context(), req.DeadlineMS)
	defer cancel()
	var resp *EvaluateResponse
	var cached bool
	var derr error
	done, err := s.submit(func() {
		rec := traceRec(ctx)
		var p *core.Plan
		p, cached, derr = s.plan(u, method, ctx.Done(), rec)
		if derr != nil {
			return
		}
		eopt := core.EvalOptions{
			Cancel: ctx.Done(),
			Trace:  rec,
		}
		// The entry read lock spans the whole evaluation, so a
		// concurrent PATCH cannot mutate the instance (or its epoch)
		// mid-run.
		entry.mu.RLock()
		defer entry.mu.RUnlock()
		epoch := entry.db.Epoch()
		var (
			ans     [][]term.Term
			stats   *obs.EvalStats
			reducer string
			execErr error
		)
		switch {
		case req.Overlay != nil:
			var ov *instance.Overlay
			ov, execErr = entry.db.NewOverlay(ovIns, ovDel)
			if execErr == nil {
				ans, stats, execErr = p.ExecuteOverlay(ov, eopt)
			}
			if execErr == nil {
				obs.ServerOverlayEvals.Add(1)
			}
		case p.Incremental():
			rk := reducerKey(planKey(u, method), req.Instance)
			var prev *core.ReducerState
			if v, ok := s.reducers.Get(rk); ok {
				prev, _ = v.(*core.ReducerState)
			}
			var next *core.ReducerState
			ans, stats, next, execErr = p.ExecuteIncremental(entry.db, prev, eopt)
			if execErr == nil && next != nil {
				s.reducers.Add(rk, next)
				reducer = reducerDecision(prev, stats)
				reducerCounter(reducer).Add(1)
			}
		default:
			ans, stats, execErr = p.Execute(entry.db, eopt)
		}
		if execErr != nil {
			derr = execErr
			return
		}
		if stats != nil {
			s.metrics.observeEval(p.Method, stats.WallNS)
		}
		resp = &EvaluateResponse{
			Method:     p.Method,
			Verdict:    p.Verdict.String(),
			Layer:      p.Layer,
			Free:       freeNames(u),
			Answers:    renderAnswers(ans),
			PlanCached: cached,
			Epoch:      epoch,
			Overlay:    req.Overlay != nil,
			Reducer:    reducer,
			Stats:      stats,
		}
		if p.Witness != nil {
			resp.Witness = p.Witness.String()
		}
	})
	if err != nil {
		s.reject(w, err)
		return
	}
	<-done
	if derr != nil {
		if errors.Is(derr, instance.ErrArityClash) {
			writeError(w, http.StatusConflict, derr.Error())
			return
		}
		writeComputeErr(w, derr)
		return
	}
	obs.ServerEvaluations.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// freeNames renders the query's answer columns.
func freeNames(u *decideUnit) []string {
	out := make([]string, len(u.q.Free))
	for i, x := range u.q.Free {
		out[i] = x.Name
	}
	return out
}

// renderAnswers converts answer tuples to plain string matrices. The
// registry only holds ground constants, so Name is the full identity
// of every answer term. Every row is a capacity-clamped window of one
// slab, so rendering costs two allocations however many answers there
// are.
func renderAnswers(ans [][]term.Term) [][]string {
	n := 0
	for _, tup := range ans {
		n += len(tup)
	}
	slab := make([]string, n)
	out := make([][]string, len(ans))
	for i, tup := range ans {
		row := slab[:len(tup):len(tup)]
		slab = slab[len(tup):]
		for j, t := range tup {
			row[j] = t.Name
		}
		out[i] = row
	}
	return out
}
