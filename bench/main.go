// Command bench is the repository's benchmark: one seeded harness that
// drives semacycd (in process, over loopback HTTP) and the evaluation
// library through four named workloads, checks every answer, and
// reports end-to-end metrics with per-layer attribution.
//
//	bash bench/run.sh -seed 1 -out r.json                      # every workload, untraced
//	bash bench/run.sh -workload eval-full -trace spans.jsonl   # + traced pass, per-layer metrics
//	bash bench/run.sh -compare a.json,b.json c.json,d.json
//
// See bench/README.md for the workloads, the metric table and the
// layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads is the benchmark's workload table; the names are final.
var workloads = []workload{
	{
		name:    "serve-hot",
		why:     "cached /decide (Zipf over 12 templates) and /evaluate with reused reducer state: isolates the server layer, engines idle",
		clients: 2,
		inputs:  serveHotWorkload,
	},
	{
		name:    "decide-cold",
		why:     "every /decide misses every cache (fresh predicate namespace per op) over 15 (q, Sigma) templates: chase, containment, hom and search dominate",
		clients: 2,
		inputs:  decideColdWorkload,
	},
	{
		name:    "eval-full",
		why:     "library Plan.Execute of 5 plans over a 4,000-atom graph, no server and no decision work: the Yannakakis phases and the generic hom path",
		clients: 1,
		inputs:  evalFullWorkload,
	},
	{
		name:    "patch-eval",
		why:     "PATCH batches (20 inserts; every fifth, 80 deletes) each followed by two standing /evaluate queries on a 20,000-atom instance: ApplyDelta and delta repair beside reads",
		clients: 1,
		inputs:  patchEvalWorkload,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed; 2 is the holdout seed for gain claims")
	seconds := fs.Float64("seconds", 30, "timed window per workload, in seconds")
	trace := fs.String("trace", "", "split each window between an untraced and a traced pass, report the per-layer metrics and write the traced ops' span trees to this file (JSON lines)")
	out := fs.String("out", "", "write the self-describing result file here")
	cmp := fs.Bool("compare", false, "compare result files: -compare BASE[,BASE...] NEW[,NEW...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two comma-separated lists of result files")
			return 2
		}
		regressed, err := compareFiles(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want [-workload NAME] [-seed N] [-seconds S] [-trace FILE] [-out FILE]")
		return 2
	}
	var selected []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace != "",
		scale:  1,
	}
	res, err := runAll(cfg, selected, stdout)
	if err == nil && !cfg.traced {
		err = checkTails(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if cfg.traced {
		if err := writeSpans(*trace, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printSummary(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// resultFile is the self-describing record of one invocation.
type resultFile struct {
	Seed       int64             `json:"seed"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	WindowS    float64           `json:"window_s"`
	WarmupS    float64           `json:"warmup_s"`
	Traced     bool              `json:"traced"`
	Workloads  []*workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome. Every percentile carries
// its sample count.
type workloadResult struct {
	Name      string         `json:"name"`
	Clients   int            `json:"clients"`
	Ops       map[string]int `json:"ops"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Metrics   metricSet      `json:"metrics"`
	Layers    metricSet      `json:"layers,omitempty"`
	SelfTime  []selfRow      `json:"self_time,omitempty"`
	spans     []opTrace
}

// failRatio is the share of attempted ops that failed or answered
// wrongly.
func (wr *workloadResult) failRatio() float64 {
	return ratio(float64(wr.Failed), float64(wr.Attempted))
}

// runAll runs the selected workloads in order, printing each one's
// metrics as it finishes.
func runAll(cfg config, selected []*workload, stdout io.Writer) (*resultFile, error) {
	res := &resultFile{
		Seed:       cfg.seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		WindowS:    cfg.window.Seconds(),
		WarmupS:    cfg.warmup().Seconds(),
		Traced:     cfg.traced,
	}
	fmt.Fprintf(stdout, "# seed=%d go=%s GOMAXPROCS=%d NumCPU=%d window=%v warmup=%v trace=%v\n",
		res.Seed, res.GoVersion, res.GOMAXPROCS, res.NumCPU, cfg.window, cfg.warmup(), cfg.traced)
	for _, w := range selected {
		wr, err := runWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

// runWorkload generates a workload's inputs and runs its passes: one
// untraced pass over the whole window, or an untraced and a traced pass
// over half of it each.
func runWorkload(w *workload, cfg config) (*workloadResult, error) {
	in, err := w.inputs(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	clients := w.clients
	if n := runtime.NumCPU(); clients > n {
		clients = n
	}
	wl := *w
	wl.clients = clients
	d, reps := cfg.window, setupReps
	if cfg.traced {
		d, reps = cfg.window/2, 1
	}
	un, err := runPass(&wl, in, cfg, d, reps, false)
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{Name: w.name, Clients: clients, Ops: un.ws.ops, Metrics: endToEndMetrics(un)}
	passes := []*passResult{un}
	if cfg.traced {
		tr, err := runPass(&wl, in, cfg, d, 1, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tr)
		wr.Layers = layerMetrics(un, tr)
		for _, d := range perLayer {
			if v, ok := wr.Metrics[d.Name]; ok {
				wr.Layers[d.Name] = v
			}
		}
		wr.SelfTime = selfTable(tr)
		wr.spans = tr.spans
	}
	for _, p := range passes {
		wr.Attempted += p.attempted
		wr.Failed += p.failed
		wr.Failures = append(wr.Failures, p.failures...)
		if p.leaked > 0 {
			wr.Failed++
			wr.Failures = append(wr.Failures, fmt.Sprintf("%d goroutines outlived the pass", p.leaked))
		}
	}
	return wr, nil
}

// printWorkload prints one workload's metrics, one "workload name
// value unit" line each, percentiles with their sample counts.
func printWorkload(w io.Writer, wr *workloadResult) {
	kinds := make([]string, 0, len(wr.Ops))
	for k := range wr.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var ops []string
	for _, k := range kinds {
		ops = append(ops, fmt.Sprintf("%s=%d", k, wr.Ops[k]))
	}
	fmt.Fprintf(w, "# %s: clients=%d ops: %s attempted=%d failed=%d\n",
		wr.Name, wr.Clients, strings.Join(ops, " "), wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "# %s: FAIL %s\n", wr.Name, f)
	}
	// The untraced pass's metrics: the gated ones, the per-layer ones it
	// measures itself, and the latency per op type.
	for _, d := range endToEnd {
		printMetric(w, wr.Name, d.Name, wr.Metrics)
	}
	for _, d := range perLayer {
		printMetric(w, wr.Name, d.Name, wr.Metrics)
	}
	for _, k := range kinds {
		printMetric(w, wr.Name, k+"_p50_ms", wr.Metrics)
		printMetric(w, wr.Name, k+"_p99_ms", wr.Metrics)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio\n", wr.Name, wr.failRatio())
	if wr.Layers == nil {
		return
	}
	for _, d := range perLayer {
		if _, ok := wr.Metrics[d.Name]; !ok {
			printMetric(w, wr.Name, d.Name, wr.Layers)
		}
	}
	fmt.Fprintf(w, "# %s: traced pass self time per op\n", wr.Name)
	for _, r := range wr.SelfTime {
		fmt.Fprintf(w, "#   %-32s %10.4f ms %6.2f%%\n", r.Span, r.MSPerOp, r.Share)
	}
}

func printMetric(w io.Writer, workload, name string, m metricSet) {
	v, ok := m[name]
	if !ok {
		return
	}
	if v.Samples > 0 {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", workload, name, v.Value, v.Unit, v.Samples)
		return
	}
	fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, v.Value, v.Unit)
}

// summary is the last line of standard output: whether every check
// passed, the ops attempted and failed, and the BENCHMARK.json metrics
// (end-to-end untraced, per-layer traced). With several workloads each
// metric name is prefixed by its workload.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printSummary(w io.Writer, res *resultFile) error {
	var names []string
	if res.Traced {
		for _, d := range perLayer {
			names = append(names, d.Name)
		}
	} else {
		for _, d := range endToEnd {
			names = append(names, d.Name)
		}
	}
	s := summary{Metrics: map[string]metricValue{}}
	for _, wr := range res.Workloads {
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		m := wr.Metrics
		if res.Traced {
			m = wr.Layers
		}
		for _, name := range names {
			key := name
			if len(res.Workloads) > 1 {
				key = wr.Name + "." + name
			}
			s.Metrics[key] = metricValue{Value: m[name].Value, Unit: units[name]}
		}
	}
	s.Correct = s.Failed == 0
	b, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result file: %w", err)
	}
	return nil
}

// writeSpans writes the kept op span trees, one JSON object a line.
func writeSpans(path string, res *resultFile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, wr := range res.Workloads {
		for _, sp := range wr.spans {
			line := struct {
				Workload string `json:"workload"`
				opTrace
			}{wr.Name, sp}
			if err := enc.Encode(&line); err != nil {
				f.Close()
				return fmt.Errorf("span file: %w", err)
			}
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
