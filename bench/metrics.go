package main

import (
	"fmt"
	"sort"
)

// metricDef is one gated end-to-end metric. The table is BENCHMARK.json's
// end_to_end at the repository root (the smoke test keeps the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the base median the metric may worsen by
}

// layerDef is one per-layer metric: it attributes, it does not gate. The
// table is BENCHMARK.json's per_layer.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of semacycd or the library sees and what a
// change may not worsen by more than the bound. Every workload reports
// every row. A metric stays here only if it repeats within 10% from run
// to run on the two-core virtual machine the benchmark was built on;
// latency, throughput and retained heap do not (README.md has the
// measurements), so they are the first rows of perLayer. fail_ratio is
// gated on any rise, but it reads 0 on a correct run, so it is printed
// and compared apart from this table.
var endToEnd = []metricDef{
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer attributes the end-to-end numbers to the modules; README.md
// maps each row to the end-to-end metric and workload it should move.
// Every workload reports every row, and a layer a workload never enters
// reads 0, so time is attributed as a share (%) of the summed op time:
// a share times the mean latency gives the layer's milliseconds. Counts
// are per op unless the name says otherwise.
var perLayer = []layerDef{
	// The untraced pass's user-visible numbers that vary too much from run
	// to run to gate: latency over every op, throughput as the median
	// over windowSlices slices of the window, and the heap the system
	// under test retains at the end of the window. Per op type (opPaths)
	// the pass also reports <op>_p50_ms and <op>_p99_ms, on the workloads
	// that issue that op type only.
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"heap_mb", "MB", "lower"},

	// Self time per span name in the traced pass. self.client is the
	// op span's own remainder: transport, JSON and the benchmark's client
	// code; self.server is the request span's (routing, parsing, cache
	// keys, admission, rendering, ApplyDelta on PATCH); self.execute is
	// answer materialization on Yannakakis plans and the whole hom
	// evaluation on generic ones.
	{"self.client", "%", "lower"},
	{"self.server", "%", "lower"},
	{"self.decide", "%", "lower"},
	{"self.layer.core", "%", "lower"},
	{"self.layer.unsatisfiable", "%", "lower"},
	{"self.layer.quotient", "%", "lower"},
	{"self.layer.chase-subset", "%", "lower"},
	{"self.layer.complete", "%", "lower"},
	{"self.chase", "%", "lower"},
	{"self.containment.prepare", "%", "lower"},
	{"self.compile", "%", "lower"},
	{"self.execute", "%", "lower"},
	{"self.yannakakis.leaves", "%", "lower"},
	{"self.yannakakis.semijoin-up", "%", "lower"},
	{"self.yannakakis.semijoin-down", "%", "lower"},
	{"self.yannakakis.join", "%", "lower"},
	{"self.other", "%", "lower"},
	{"trace.overhead", "%", "lower"},
	{"trace.truncated", "ratio", "lower"},

	// server: /metrics deltas over the untraced window.
	{"client.overhead", "%", "lower"},
	{"server.decide.share", "%", "lower"},
	{"server.evaluate.share", "%", "lower"},
	{"server.patch.share", "%", "lower"},
	{"server.decision_cache.hit_ratio", "ratio", "higher"},
	{"server.sigma_cache.hit_ratio", "ratio", "higher"},
	{"server.prepared_cache.hit_ratio", "ratio", "higher"},
	{"server.plan_cache.hit_ratio", "ratio", "higher"},
	{"server.sigma_cache.evictions_per_op", "count", "lower"},
	{"server.reducer.reused_ratio", "ratio", "higher"},
	{"server.reducer.repaired_ratio", "ratio", "higher"},
	{"server.reducer.recomputed_ratio", "ratio", "lower"},
	{"server.shed", "count", "lower"},
	{"server.delta_atoms_per_patch", "atoms", "lower"},

	// core: per-layer decision time from the /metrics layer histograms,
	// and which layer settled each /decide, from the response.
	{"core.layer.core", "%", "lower"},
	{"core.layer.unsatisfiable", "%", "lower"},
	{"core.layer.quotient", "%", "lower"},
	{"core.layer.chase-subset", "%", "lower"},
	{"core.layer.complete", "%", "lower"},
	{"core.settled.core", "ratio", "higher"},
	{"core.settled.unsatisfiable", "ratio", "higher"},
	{"core.settled.quotient", "ratio", "higher"},
	{"core.settled.chase-subset", "ratio", "higher"},
	{"core.settled.complete", "ratio", "higher"},
	{"core.settled.budget", "ratio", "lower"},

	// chase, containment, hom: work per op from the global counters on
	// /metrics, sizes per decision from the response fingerprints.
	{"chase.triggers_fired", "count", "lower"},
	{"search.candidates", "count", "lower"},
	{"containment.checks", "count", "lower"},
	{"hom.enumerations", "count", "lower"},
	{"hom.backtracks", "count", "lower"},
	{"chase.atoms", "atoms", "lower"},
	{"containment.rewrite_disjuncts", "count", "lower"},

	// yannakakis: EvalStats per evaluation, and each eval-full plan's
	// share of the op time (timed library calls).
	{"yannakakis.rows_scanned", "rows", "lower"},
	{"yannakakis.index_hits", "rows", "lower"},
	{"yannakakis.semijoin_dropped_rows", "rows", "lower"},
	{"yannakakis.join_rows.path3-free", "rows", "lower"},
	{"yannakakis.join_rows.bool-path6", "rows", "lower"},
	{"yannakakis.answers_per_join_row", "ratio", "higher"},
	{"eval.share.path3-free", "%", "lower"},
	{"eval.share.bool-path6", "%", "lower"},
	{"eval.share.sel2", "%", "lower"},
	{"eval.share.anchored", "%", "lower"},
	{"eval.share.triangle", "%", "lower"},

	// instance and delta evaluation: a library replica replays the
	// window's PATCH batches after the window.
	{"instance.apply_delta.share", "%", "lower"},
	{"yannakakis.delta_vs_full", "ratio", "lower"},
	{"yannakakis.trees_repaired", "count", "higher"},
	{"yannakakis.trees_recomputed", "count", "lower"},

	// Set-up phases, as shares of the median set-up time.
	{"setup.start", "%", "lower"},
	{"setup.load", "%", "lower"},
	{"setup.prime", "%", "lower"},
	{"setup.parse", "%", "lower"},
	{"setup.interned", "%", "lower"},
	{"setup.compile", "%", "lower"},

	// Go runtime over the untraced window.
	{"go.gc_cycles_per_kop", "count", "lower"},
	{"go.gc_pause.share", "%", "lower"},
	{"go.goroutines_leaked", "count", "lower"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	for op := range opPaths {
		m[op+"_p50_ms"], m[op+"_p99_ms"] = "ms", "ms"
	}
	return m
}()

// metric is one measured value. Samples is the sample count behind a
// percentile, 0 for other metrics.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's metrics by name; setting a name missing
// from the tables is a bug in the benchmark.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m.setN(name, v, 0) }

func (m metricSet) setN(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the metric table", name))
	}
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-quantile of sorted samples, interpolating
// linearly between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median of unsorted values.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, the rule the spread and -compare
// arithmetic is specified in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
