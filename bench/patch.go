package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"semacyclic/internal/core"
	"semacyclic/internal/cq"
	"semacyclic/internal/instance"
	"semacyclic/internal/server"
	"semacyclic/internal/telemetry"
)

// patchQueries are patch-eval's standing queries.
var patchQueries = []string{
	// One join tree: an insert-only batch repairs it, a delete
	// recomputes it.
	"q(x,z) :- C(x), E(x,y), E(y,z).",
	// Two join trees, one per component: each is repaired or recomputed
	// on its own.
	"q(x,u) :- C(x), E(x,y), D(u), F(u,v).",
}

// checkEvery is the step stride of the replica comparison, widened in
// multiples of itself to at most maxChecks comparisons a pass; the last
// complete step is always compared too. A comparison replays the cycle
// steps ending at its step, one of each kind of batch.
const (
	checkEvery = 25
	maxChecks  = 20
	cycle      = 5
)

type patchEvalInputs struct {
	seed    int64
	load    []byte
	evals   [][]byte
	anchors []string // the C, D and N atoms, never patched
	edges   []string // the initial E and F atoms
	spares  []string // 80 more E and F atoms, initially absent
}

// patchEvalWorkload generates an instance of C and D anchors over
// distinct nodes and, per node, exactly one E- and one F-successor. An
// N fact per node, never patched, keeps every constant in the instance,
// so that no batch adds a term to the symbol table.
func patchEvalWorkload(cfg config) (inputs, error) {
	anchors := cfg.size(25, 8)
	nodes := (cfg.size(20000, 400) - 2*anchors) / 3
	in := &patchEvalInputs{seed: cfg.seed}
	r := newRand(cfg.seed, 3)
	for k, i := range r.Perm(nodes)[:2*anchors] {
		in.anchors = append(in.anchors, fmt.Sprintf("%s(c%d).", [2]string{"C", "D"}[k%2], i))
	}
	for i := 0; i < nodes; i++ {
		in.anchors = append(in.anchors, fmt.Sprintf("N(c%d).", i))
	}
	universe := map[string]bool{}
	for i := 0; i < nodes; i++ {
		for _, p := range []string{"E", "F"} {
			e := fmt.Sprintf("%s(c%d,c%d).", p, i, r.Intn(nodes))
			universe[e] = true
			in.edges = append(in.edges, e)
		}
	}
	for len(in.spares) < 80 {
		e := fmt.Sprintf("%s(c%d,c%d).", [2]string{"E", "F"}[r.Intn(2)], r.Intn(nodes), r.Intn(nodes))
		if !universe[e] {
			universe[e] = true
			in.spares = append(in.spares, e)
		}
	}
	text := strings.Join(append(append([]string(nil), in.anchors...), in.edges...), "\n")
	in.load = mustJSON(server.InstanceRequest{Name: "churn", Atoms: text})
	for _, q := range patchQueries {
		in.evals = append(in.evals, mustJSON(server.EvaluateRequest{Query: q, Instance: "churn"}))
	}
	return in, nil
}

// atomSet is an ordered set of atom texts with constant-time insert
// and delete.
type atomSet struct {
	atoms []string
	index map[string]int
}

func newAtomSet(atoms []string) *atomSet {
	s := &atomSet{atoms: append([]string(nil), atoms...), index: make(map[string]int, len(atoms))}
	for i, a := range s.atoms {
		s.index[a] = i
	}
	return s
}

func (s *atomSet) add(a string) {
	s.index[a] = len(s.atoms)
	s.atoms = append(s.atoms, a)
}

func (s *atomSet) remove(a string) {
	k, last := s.index[a], s.atoms[len(s.atoms)-1]
	s.atoms[k], s.index[last] = last, k
	s.atoms = s.atoms[:len(s.atoms)-1]
	delete(s.index, a)
}

// batcher generates the PATCH batches from the seed over a fixed
// universe of edges, present and absent. Four batches in five insert 20
// absent edges; every fifth deletes 80 present ones, all at random. So
// the instance stays within 80 atoms of its initial size, and its atoms
// within the universe, however many steps a window runs.
type batcher struct {
	r               *rand.Rand
	present, absent *atomSet
	n               int // batches generated
}

// move takes k random atoms of from into to and returns them.
func (b *batcher) move(k int, from, to *atomSet) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = from.atoms[b.r.Intn(len(from.atoms))]
		from.remove(out[i])
		to.add(out[i])
	}
	return out
}

func (b *batcher) next() (ins, del []string) {
	b.n++
	if b.n%cycle == 0 {
		return nil, b.move(80, b.present, b.absent)
	}
	return b.move(20, b.absent, b.present), nil
}

// patchStep records one PATCH and the answers of the evaluations that
// followed it.
type patchStep struct {
	ins, del []string
	evals    int
	digest   [2]uint64
}

type patchEval struct {
	*semacycd
	in    *patchEvalInputs
	gen   *batcher
	phase int    // 0: PATCH next; 1, 2: evaluate patchQueries[phase-1]
	epoch uint64 // the instance epoch semacycd last reported
	steps []patchStep
}

func (in *patchEvalInputs) setup(ph *phases, _ int) (system, error) {
	gen := &batcher{r: newRand(in.seed, 300), present: newAtomSet(in.edges), absent: newAtomSet(in.spares)}
	s := &patchEval{semacycd: startServer(ph), in: in, gen: gen}
	ph.start("load")
	out, err := s.post("/instances", in.load)
	if err != nil {
		s.close()
		return nil, err
	}
	var info server.InstanceInfo
	if err := json.Unmarshal(out, &info); err != nil {
		s.close()
		return nil, fmt.Errorf("patch-eval: decode POST /instances: %w", err)
	}
	s.epoch = info.Epoch
	ph.start("prime")
	for _, body := range in.evals {
		if _, err := s.post("/evaluate", body); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// op sends the next request of the step cycle: PATCH, then each
// standing query. It is driven by one client. Every PATCH must advance
// the epoch by one and apply its whole batch, and every evaluation must
// run at the epoch of the PATCH before it.
func (s *patchEval) op(cl *client) error {
	phase := s.phase
	s.phase = (s.phase + 1) % 3
	if phase == 0 {
		ins, del := s.gen.next()
		body := mustJSON(server.PatchRequest{Insert: strings.Join(ins, " "), Delete: strings.Join(del, " ")})
		out, err := cl.call("patch", http.MethodPatch, "/instances/churn", body)
		if err != nil {
			return err
		}
		var resp server.PatchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return fmt.Errorf("patch-eval: decode PATCH: %w", err)
		}
		if resp.Epoch != s.epoch+1 || resp.Inserted != len(ins) || resp.Deleted != len(del) {
			return fmt.Errorf("patch-eval: PATCH of %d inserts and %d deletes at epoch %d answered %+v",
				len(ins), len(del), s.epoch, resp)
		}
		s.epoch = resp.Epoch
		s.steps = append(s.steps, patchStep{ins: ins, del: del})
		return nil
	}
	q := phase - 1
	out, err := cl.call("evaluate", http.MethodPost, "/evaluate", s.in.evals[q])
	if err != nil {
		return err
	}
	var resp server.EvaluateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("patch-eval: decode /evaluate: %w", err)
	}
	if len(s.steps) == 0 || resp.Stats == nil {
		return fmt.Errorf("patch-eval: /evaluate out of step")
	}
	if resp.Epoch != s.epoch {
		return fmt.Errorf("patch-eval: /evaluate ran at epoch %d, the last PATCH reported %d", resp.Epoch, s.epoch)
	}
	st := &s.steps[len(s.steps)-1]
	st.digest[q] = digestStrings(resp.Answers)
	st.evals++
	tallyEval(cl, resp.Stats)
	return nil
}

// report replays the recorded batches on the atom set and checks
// semacycd's answers against a library replica: at every checkEvery-th
// step (thinned to at most maxChecks a pass) and at the last complete
// one, it replays the batch cycle ending at that step.
func (s *patchEval) report(ws *windowStats) error {
	plans := make([]*core.Plan, len(patchQueries))
	for i, query := range patchQueries {
		q, err := cq.Parse(query)
		if err != nil {
			return fmt.Errorf("patch-eval replica: %w", err)
		}
		if plans[i], err = core.CompilePlan(q, nil, core.Options{}, core.MethodAuto); err != nil {
			return fmt.Errorf("patch-eval replica: %w", err)
		}
	}
	last := -1
	for i, st := range s.steps {
		if st.evals == len(patchQueries) {
			last = i
		}
	}
	if last < 0 {
		return fmt.Errorf("patch-eval: no complete step to check")
	}
	stride := checkEvery
	for last/stride > maxChecks {
		stride += checkEvery
	}
	ends := []int{last}
	for e := stride - 1; e < last; e += stride {
		ends = append(ends, e)
	}
	starts := map[int][]int{}
	for _, e := range ends {
		from := max(0, e-cycle+1)
		starts[from] = append(starts[from], e)
	}
	set := newAtomSet(s.in.edges)
	for i, st := range s.steps[:last+1] {
		for _, e := range starts[i] {
			if err := s.check(ws, i, e, set, plans); err != nil {
				return err
			}
		}
		for _, a := range st.del {
			set.remove(a)
		}
		for _, a := range st.ins {
			set.add(a)
		}
	}
	return nil
}

// check rebuilds the instance as it stood before step from, with its
// interned view and the plans' reducer state, and replays steps from to
// to on it. Per step it times ApplyDelta, an incremental run and a full
// run, and compares both runs' answers with semacycd's.
func (s *patchEval) check(ws *windowStats, from, to int, set *atomSet, plans []*core.Plan) error {
	db, err := instance.Parse(strings.Join(append(append([]string(nil), s.in.anchors...), set.atoms...), "\n"))
	if err != nil {
		return fmt.Errorf("patch-eval replica: %w", err)
	}
	prev := make([]*core.ReducerState, len(plans))
	for q, p := range plans {
		if _, _, prev[q], err = p.ExecuteIncremental(db, nil, core.EvalOptions{}); err != nil {
			return fmt.Errorf("patch-eval replica: %w", err)
		}
	}
	for i := from; i <= to; i++ {
		st := s.steps[i]
		ins, err := instance.ParseAtoms(strings.Join(st.ins, " "))
		if err != nil {
			return fmt.Errorf("patch-eval replica: %w", err)
		}
		del, err := instance.ParseAtoms(strings.Join(st.del, " "))
		if err != nil {
			return fmt.Errorf("patch-eval replica: %w", err)
		}
		sw := telemetry.StartTimer()
		res, err := db.ApplyDelta(ins, del)
		ws.tally["replica.apply_ns"] += float64(sw.ElapsedNS())
		ws.tally["replica.apply_n"]++
		if err != nil {
			return fmt.Errorf("patch-eval replica: step %d: %w", i, err)
		}
		if res.Inserted != len(ins) || res.Deleted != len(del) {
			return fmt.Errorf("patch-eval replica: step %d applied %+v", i, res)
		}
		for q, p := range plans {
			sw := telemetry.StartTimer()
			inc, est, next, err := p.ExecuteIncremental(db, prev[q], core.EvalOptions{})
			deltaNS := sw.ElapsedNS()
			if err != nil {
				return fmt.Errorf("patch-eval replica: %w", err)
			}
			prev[q] = next
			sw = telemetry.StartTimer()
			full, _, err := p.Execute(db, core.EvalOptions{})
			fullNS := sw.ElapsedNS()
			if err != nil {
				return fmt.Errorf("patch-eval replica: %w", err)
			}
			if digestTerms(full) != st.digest[q] || digestTerms(inc) != st.digest[q] {
				return fmt.Errorf("patch-eval: step %d: %s: semacycd's answers differ from the replica's", i, patchQueries[q])
			}
			ws.tally["replica.samples"]++
			ws.tally["replica.delta_ns"] += float64(deltaNS)
			ws.tally["replica.full_ns"] += float64(fullNS)
			ws.tally["replica.trees_repaired"] += float64(est.TreesRepaired)
			ws.tally["replica.trees_recomputed"] += float64(est.TreesRecomputed)
		}
	}
	return nil
}
