package main

import (
	"fmt"

	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/telemetry"
	"semacyclic/internal/term"
)

// evalQueries are eval-full's plans, in rotation order.
var evalQueries = [][2]string{
	// Free path: the join phase materializes every path, ROADMAP item 1's
	// projection-pushdown target.
	{"path3-free", "q(x,w) :- E(x,y), E(y,z), E(z,w)."},
	// Boolean path: one bit of answer over tens of thousands of join rows.
	{"bool-path6", "q :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6)."},
	// Selective: semijoins drop most rows before the join.
	{"sel2", "q(x) :- E(x,y), E(y,z), P(z)."},
	// Anchored: the leaf load goes through the per-position index.
	{"anchored", "q(y) :- E({anchor},y), E(y,z), P(z)."},
	// Cyclic: the generic hom evaluator, ROADMAP item 5's pre-filter.
	{"triangle", "q :- E(x,y), E(y,z), E(z,x)."},
}

type evalFullInputs struct {
	text    string
	queries []string
	// refs are the answer digests of each plan, from the generic
	// evaluator on an independently parsed instance.
	refs []uint64
}

func evalFullWorkload(cfg config) (inputs, error) {
	db, err := regularGraph(newRand(cfg.seed, 2), cfg.size(4000, 400))
	if err != nil {
		return nil, fmt.Errorf("eval-full instance: %w", err)
	}
	text, err := db.Dump()
	if err != nil {
		return nil, fmt.Errorf("eval-full instance: %w", err)
	}
	in := &evalFullInputs{text: text}
	for _, q := range evalQueries {
		query := withAnchor(q[1], db)
		ans, err := libAnswers(query, text, core.MethodGeneric)
		if err != nil {
			return nil, fmt.Errorf("eval-full reference: %w", err)
		}
		in.queries = append(in.queries, query)
		in.refs = append(in.refs, digestStrings(ans))
	}
	return in, nil
}

type evalFull struct {
	in    *evalFullInputs
	db    *instance.Instance
	plans []*core.Plan
}

func (in *evalFullInputs) setup(ph *phases, _ int) (system, error) {
	s := &evalFull{in: in}
	ph.start("parse")
	db, err := instance.Parse(in.text)
	if err != nil {
		return nil, fmt.Errorf("eval-full: %w", err)
	}
	s.db = db
	ph.start("interned")
	db.Interned()
	ph.start("compile")
	for _, query := range in.queries {
		q, err := cq.Parse(query)
		if err != nil {
			return nil, fmt.Errorf("eval-full: %w", err)
		}
		p, err := core.CompilePlan(q, nil, core.Options{}, core.MethodAuto)
		if err != nil {
			return nil, fmt.Errorf("eval-full: compiling %s: %w", query, err)
		}
		s.plans = append(s.plans, p)
	}
	return s, nil
}

func (s *evalFull) url() string { return "" }

func (s *evalFull) op(cl *client) error {
	i := cl.n % len(s.plans)
	name := evalQueries[i][0]
	var ans [][]term.Term
	var st *obs.EvalStats
	ns, err := cl.lib("evaluate", func(rec *telemetry.Recorder) error {
		var err error
		ans, st, err = s.plans[i].Execute(s.db, core.EvalOptions{Trace: rec})
		return err
	})
	if err != nil {
		return fmt.Errorf("eval-full: %s: %w", name, err)
	}
	if digestTerms(ans) != s.in.refs[i] {
		return fmt.Errorf("eval-full: %s: %d answers differ from the generic evaluator's", name, len(ans))
	}
	tallyEval(cl, st)
	cl.add("lib.wall_ns", float64(st.WallNS))
	cl.add("ns."+name, float64(ns))
	cl.add("n."+name, 1)
	cl.add("join_rows."+name, float64(st.JoinRows))
	cl.add("answers."+name, float64(st.Answers))
	return nil
}

// counters reads the process-global work counters under their /metrics
// names, as the HTTP workloads see them.
func (s *evalFull) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for name, v := range obs.TakeSnapshot() {
		out[promName(name)] = float64(v)
	}
	return out, nil
}

func (s *evalFull) report(*windowStats) error { return nil }

func (s *evalFull) close() {}

// Answer digests: FNV-1a over every term name, with separators, in the
// canonical answer order both the library and semacycd return.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string, sep byte) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ uint64(sep)) * fnvPrime
}

func digestTerms(ans [][]term.Term) uint64 {
	h := uint64(fnvOffset)
	for _, tup := range ans {
		for _, t := range tup {
			h = fnvString(h, t.Name, 0x1f)
		}
		h = (h ^ 0x1e) * fnvPrime
	}
	return h
}

func digestStrings(ans [][]string) uint64 {
	h := uint64(fnvOffset)
	for _, tup := range ans {
		for _, t := range tup {
			h = fnvString(h, t, 0x1f)
		}
		h = (h ^ 0x1e) * fnvPrime
	}
	return h
}
