package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"

	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/gen"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/server"
)

// semacycd is an in-process semacycd behind a loopback listener, so
// requests cross a real TCP connection and net/http on both sides.
type semacycd struct {
	srv *server.Server
	ts  *httptest.Server
	// hc carries set-up requests and /metrics scrapes, never ops.
	hc *http.Client
}

func startServer(ph *phases) *semacycd {
	ph.start("start")
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	return &semacycd{srv: srv, ts: ts, hc: ts.Client()}
}

func (s *semacycd) url() string { return s.ts.URL }

func (s *semacycd) counters() (map[string]float64, error) { return scrape(s.hc, s.ts.URL) }

// close stops the listener after its connections finish, then drains
// the worker pool, so no server goroutine outlives it.
func (s *semacycd) close() {
	s.ts.Close()
	s.srv.Drain()
}

// post sends one set-up request and returns the response body.
func (s *semacycd) post(path string, body []byte) ([]byte, error) {
	resp, err := s.hc.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// mustJSON marshals a request type the benchmark defines; failure is a
// bug in the benchmark.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// decision is the deterministic part of a /decide answer.
type decision struct {
	Verdict     string `json:"verdict"`
	Layer       string `json:"layer"`
	Fingerprint string `json:"fingerprint"`
}

var (
	fpAtoms     = regexp.MustCompile(`chase\{[^}]*\batoms=(\d+)`)
	fpDisjuncts = regexp.MustCompile(`\bdisjuncts=(-?\d+)`)
)

// tallyDecision adds one /decide answer's settling layer and its
// fingerprint's chase size and rewriting size to the window tallies.
func tallyDecision(cl *client, d *decision) {
	cl.add("decide.n", 1)
	cl.add("settled."+d.Layer, 1)
	if m := fpAtoms.FindStringSubmatch(d.Fingerprint); m != nil {
		v, _ := strconv.Atoi(m[1]) // the pattern admits only digits
		cl.add("chase.atoms", float64(v))
	}
	if m := fpDisjuncts.FindStringSubmatch(d.Fingerprint); m != nil {
		if v, _ := strconv.Atoi(m[1]); v > 0 {
			cl.add("containment.rewrite_disjuncts", float64(v))
		}
	}
}

// tallyEval adds one evaluation's EvalStats to the window tallies.
func tallyEval(cl *client, st *obs.EvalStats) {
	cl.add("eval.n", 1)
	cl.add("eval.rows_scanned", float64(st.RowsScanned))
	cl.add("eval.index_hits", float64(st.IndexHits))
	cl.add("eval.semijoin_dropped_rows", float64(st.SemijoinDroppedRows))
}

// libDecide is the library reference for one (q, Σ) text pair.
func libDecide(query, depsText string, budget int) (decision, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return decision{}, fmt.Errorf("query %q: %w", query, err)
	}
	set := &deps.Set{}
	if depsText != "" {
		if set, err = deps.Parse(depsText); err != nil {
			return decision{}, fmt.Errorf("deps %q: %w", depsText, err)
		}
	}
	res, err := core.Decide(q, set, core.Options{SearchBudget: budget})
	if err != nil {
		return decision{}, fmt.Errorf("deciding %q: %w", query, err)
	}
	return decision{Verdict: res.Verdict.String(), Layer: res.Layer, Fingerprint: res.Stats.DeterministicFingerprint()}, nil
}

// libAnswers evaluates a query on a database text through a plan
// compiled with the given method, returning the answers as strings.
func libAnswers(query, dbText, method string) ([][]string, error) {
	db, err := instance.Parse(dbText)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	q, err := cq.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", query, err)
	}
	p, err := core.CompilePlan(q, nil, core.Options{}, method)
	if err != nil {
		return nil, fmt.Errorf("compiling %q: %w", query, err)
	}
	ans, _, err := p.Execute(db, core.EvalOptions{})
	if err != nil {
		return nil, fmt.Errorf("evaluating %q: %w", query, err)
	}
	return gen.AnswerStrings(ans), nil
}

// decideBudget caps the candidates each decision layer examines, so
// that the hardest templates end in the budget layer within a few
// hundred milliseconds.
const decideBudget = 100

// sticky is the tri-sticky constraint set of the serving experiments:
// verification goes through the UCQ rewriting the prepared cache keeps.
const sticky = "US1(x), US0(y) -> S0(x,y).\nS1(x,y) -> S1(y,w).\nUS0(x), US1(y) -> S1(x,y)."

// ---- serve-hot ----

// serveHotTemplates is the /decide pool: acyclic fast paths, cyclic
// queries with and without a constraint that makes them acyclic, the
// paper's Example 1, and a sticky set.
func serveHotTemplates() [][2]string {
	var ts [][2]string
	for _, n := range []int{3, 5, 8} {
		ts = append(ts, [2]string{gen.PathCQ(n).String(), ""}, [2]string{gen.StarCQ(n).String(), ""})
	}
	return append(ts,
		[2]string{gen.CycleCQ(3).String(), ""},
		[2]string{gen.CycleCQ(4).String(), ""},
		[2]string{gen.CliqueCQ(3).String(), ""},
		[2]string{gen.CycleCQ(3).String(), "E(x,y) -> E(x,x)."},
		[2]string{gen.Example1Query().String(), gen.Example1TGD().String()},
		[2]string{"q :- S0(x,y), S0(y,z), S0(z,x).", sticky},
	)
}

// serveHotQueries are the standing /evaluate queries. All are acyclic
// with non-empty answers, so after the first run each reuses its
// retained reducer state.
var serveHotQueries = []string{
	"q(x) :- P(x), E(x,y), P(y).",
	"q :- E(x,y), E(y,z), E(z,w).",
	"q(y) :- E({anchor},y), E(y,z), P(z).",
}

type serveHotInputs struct {
	seed     int64
	decide   [][]byte // /decide bodies, one per template
	evals    [][]byte // /evaluate bodies, one per query
	load     []byte   // the POST /instances body
	evalRefs []uint64 // library answer digests per query
}

func serveHotWorkload(cfg config) (inputs, error) {
	in := &serveHotInputs{seed: cfg.seed}
	for _, t := range serveHotTemplates() {
		in.decide = append(in.decide, mustJSON(server.DecideRequest{Query: t[0], Deps: t[1], Budget: decideBudget}))
	}
	db, err := regularGraph(newRand(cfg.seed, 1), cfg.size(2000, 200))
	if err != nil {
		return nil, fmt.Errorf("serve-hot instance: %w", err)
	}
	text, err := db.Dump()
	if err != nil {
		return nil, fmt.Errorf("serve-hot instance: %w", err)
	}
	in.load = mustJSON(server.InstanceRequest{Name: "hot", Atoms: text})
	for _, q := range serveHotQueries {
		q = withAnchor(q, db)
		in.evals = append(in.evals, mustJSON(server.EvaluateRequest{Query: q, Instance: "hot"}))
		ref, err := libAnswers(q, text, core.MethodAuto)
		if err != nil {
			return nil, fmt.Errorf("serve-hot reference: %w", err)
		}
		in.evalRefs = append(in.evalRefs, digestStrings(ref))
	}
	return in, nil
}

type serveHot struct {
	*semacycd
	in *serveHotInputs
	// decideRefs and evalRefs are the primed responses every later
	// response must equal (evaluate responses with wall_ns removed).
	decideRefs [][]byte
	decisions  []decision
	evalRefs   [][]byte
	evalStats  []*obs.EvalStats
	rng        []*rand.Rand
	zipf       []*rand.Zipf
}

func (in *serveHotInputs) setup(ph *phases, clients int) (system, error) {
	s := &serveHot{semacycd: startServer(ph), in: in}
	if err := s.prime(ph); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		r := newRand(in.seed, 100+int64(i))
		s.rng = append(s.rng, r)
		s.zipf = append(s.zipf, rand.NewZipf(r, 1.1, 1, uint64(len(in.decide)-1)))
	}
	return s, nil
}

// prime loads the instance, decides every template once and evaluates
// every query twice (cold, then with plan and reducer state cached),
// checking the answers against the library.
func (s *serveHot) prime(ph *phases) error {
	ph.start("load")
	if _, err := s.post("/instances", s.in.load); err != nil {
		return err
	}
	ph.start("prime")
	for _, body := range s.in.decide {
		out, err := s.post("/decide", body)
		if err != nil {
			return err
		}
		var d decision
		if err := json.Unmarshal(out, &d); err != nil {
			return fmt.Errorf("decode /decide: %w", err)
		}
		s.decideRefs = append(s.decideRefs, out)
		s.decisions = append(s.decisions, d)
	}
	for i, body := range s.in.evals {
		var out []byte
		for k := 0; k < 2; k++ {
			var err error
			if out, err = s.post("/evaluate", body); err != nil {
				return err
			}
		}
		var resp server.EvaluateResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return fmt.Errorf("decode /evaluate: %w", err)
		}
		if digestStrings(resp.Answers) != s.in.evalRefs[i] {
			return fmt.Errorf("serve-hot: %s: answers differ from the library's", serveHotQueries[i])
		}
		if resp.Stats == nil {
			return fmt.Errorf("serve-hot: %s: no stats", serveHotQueries[i])
		}
		s.evalRefs = append(s.evalRefs, dropWallNS(out))
		s.evalStats = append(s.evalStats, resp.Stats)
	}
	return nil
}

func (s *serveHot) op(cl *client) error {
	r := s.rng[cl.id]
	if r.Intn(5) == 0 {
		i := r.Intn(len(s.in.evals))
		out, err := cl.call("evaluate", http.MethodPost, "/evaluate", s.in.evals[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(dropWallNS(out), s.evalRefs[i]) {
			return fmt.Errorf("serve-hot: /evaluate %d: response differs from the primed one: %s", i, out)
		}
		tallyEval(cl, s.evalStats[i])
		return nil
	}
	t := int(s.zipf[cl.id].Uint64())
	out, err := cl.call("decide", http.MethodPost, "/decide", s.in.decide[t])
	if err != nil {
		return err
	}
	if !bytes.Equal(out, s.decideRefs[t]) {
		return fmt.Errorf("serve-hot: /decide template %d: response differs from the primed one: %s", t, out)
	}
	tallyDecision(cl, &s.decisions[t])
	return nil
}

func (s *serveHot) report(*windowStats) error { return nil }

// dropWallNS removes the one nondeterministic field of an /evaluate
// body, the stats wall time.
func dropWallNS(body []byte) []byte {
	const key = `"wall_ns":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return body
	}
	j := i + len(key)
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	return append(append([]byte(nil), body[:i]...), body[j:]...)
}

// ---- decide-cold ----

// coldTemplate is one (q, Σ) pair of decide-cold, split at every
// predicate so that a tenant suffix can be spliced in.
type coldTemplate struct {
	query, deps []string
	ref         decision
}

// coldTemplates spans the none, inclusion, sticky, non-recursive and
// key classes, and the core, quotient and budget layers (the budget
// layer: the complete search ran out of its candidate budget). The
// 4-cycle under the inclusion dependency is left out: at about 250 ms
// a decision it would hold a third of the window on its own.
func coldTemplates() [][2]string {
	incl := "E(x,y) -> E(y,z)."
	self := "E(x,y) -> E(x,x)."
	q4, k4 := gen.Example4Query(), gen.Example4Key()
	q5, k5 := gen.Example5Grid(2)
	return [][2]string{
		{gen.CycleCQ(3).String(), incl},
		{gen.CycleCQ(4).String(), self},
		{"q :- S0(x,y), S0(y,z), S0(z,x).", sticky},
		{"q :- S0(x,y), S1(y,z), S0(z,x).", sticky},
		{gen.CliqueCQ(4).String(), self},
		{gen.Example1Query().String(), gen.Example1TGD().String()},
		{q4.String(), k4.String()},
		{q5.String(), k5.String()},
		{"q :- A(x,y), B(y,z), C(z,x).", "A(x,y) -> B(y,z).\nB(x,y) -> C(y,w)."},
		{gen.CycleCQ(3).String(), self},
		{"q(x) :- E(x,y), E(y,z), E(z,x).", self},
		{gen.PathCQ(5).String(), ""},
		{gen.CliqueCQ(3).String(), ""},
		{"q :- R(x,y), R(y,z), R(z,x), P(x), P(y), P(z).", gen.Example2Set().String()},
		{gen.StarCQ(5).String(), ""},
	}
}

type decideColdInputs struct {
	seed      int64
	budget    int
	templates []coldTemplate
}

func decideColdWorkload(cfg config) (inputs, error) {
	in := &decideColdInputs{seed: cfg.seed, budget: cfg.size(decideBudget, 5)}
	for _, t := range coldTemplates() {
		ct := coldTemplate{query: splitPreds(t[0], true), deps: splitPreds(t[1], false)}
		ref, err := libDecide(tenant(ct.query, 0), tenant(ct.deps, 0), in.budget)
		if err != nil {
			return nil, fmt.Errorf("decide-cold reference: %w", err)
		}
		ct.ref = ref
		in.templates = append(in.templates, ct)
	}
	return in, nil
}

// splitPreds cuts a query or dependency text before every "(" that
// follows a predicate name, skipping a query's head.
func splitPreds(text string, query bool) []string {
	from := 0
	if query {
		from = strings.Index(text, ":-")
	}
	var parts []string
	last := 0
	for i := from; i < len(text); i++ {
		if text[i] == '(' && i > 0 && isIdentByte(text[i-1]) {
			parts = append(parts, text[last:i])
			last = i
		}
	}
	return append(parts, text[last:])
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// tenant renames every predicate of a split text into tenant k's
// namespace: E becomes E_t<k>.
func tenant(parts []string, k int) string {
	return strings.Join(parts, "_t"+strconv.Itoa(k))
}

type decideCold struct {
	*semacycd
	in      *decideColdInputs
	clients int
	// order is each client's seeded template permutation, walked
	// cyclically so that every client sends every template equally often.
	order [][]int
	next  []int
}

func (in *decideColdInputs) setup(ph *phases, clients int) (system, error) {
	s := &decideCold{semacycd: startServer(ph), in: in, clients: clients, next: make([]int, clients)}
	ph.start("prime")
	for _, t := range in.templates {
		if err := s.check(t, 0, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	for i := 0; i < clients; i++ {
		s.order = append(s.order, newRand(in.seed, 200+int64(i)).Perm(len(in.templates)))
	}
	return s, nil
}

func (s *decideCold) op(cl *client) error {
	i := s.next[cl.id]
	s.next[cl.id]++
	t := s.in.templates[s.order[cl.id][i%len(s.in.templates)]]
	return s.check(t, 1+i*s.clients+cl.id, cl)
}

// check decides template t in tenant k's namespace — as an op of cl, or
// as a set-up request when cl is nil — and compares verdict, layer and
// fingerprint with the tenant-0 library reference.
func (s *decideCold) check(t coldTemplate, k int, cl *client) error {
	body := mustJSON(server.DecideRequest{Query: tenant(t.query, k), Deps: tenant(t.deps, k), Budget: s.in.budget})
	var out []byte
	var err error
	if cl == nil {
		out, err = s.post("/decide", body)
	} else {
		out, err = cl.call("decide", http.MethodPost, "/decide", body)
	}
	if err != nil {
		return err
	}
	var d decision
	if err := json.Unmarshal(out, &d); err != nil {
		return fmt.Errorf("decide-cold: decode /decide: %w", err)
	}
	if d != t.ref {
		return fmt.Errorf("decide-cold: %s tenant %d: got %+v, library says %+v", tenant(t.query, k), k, d, t.ref)
	}
	if cl != nil {
		tallyDecision(cl, &d)
	}
	return nil
}

func (s *decideCold) report(*windowStats) error { return nil }
