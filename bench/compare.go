package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	base, next [3]float64 // q1, median, q3 of each side
	// delta is the change of the median relative to the base median,
	// signed so that a positive delta is worse.
	delta float64
	// won is the share of pairs (the i-th base run against the i-th new
	// run) the new side wins; ties count for neither.
	won     float64
	verdict string
}

// judge applies the benchmark's comparison rule to one metric's runs:
//
//   - unresolved: the spread between quartiles of either side, relative
//     to its median, is wider than the bound, unless every new run reads
//     better than every base run;
//   - regress: the new median is worse than the base median by more than
//     the bound;
//   - gain: the new side wins at least nine tenths of the pairs, and the
//     medians differ, in its favour, by more than the spread between the
//     base side's quartiles;
//   - ok otherwise.
//
// A metric without a bound attributes and does not gate: it reads gain
// by the same rule, "-" otherwise. setup_s is judged on its medians
// alone: a set-up is tens of milliseconds of cold code whose spread from
// run to run follows the host, while work moved into set-up moves the
// median.
func judge(def metricDef, base, next []float64) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.next[0], c.next[1], c.next[2] = quartiles(next)
	sign := 1.0 // +1 when lower is better: a positive difference is worse
	if def.Better == "higher" {
		sign = -1
	}
	c.delta = sign * ratio(c.next[1]-c.base[1], c.base[1])
	pairs, won := min(len(base), len(next)), 0
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) < 0 {
			won++
		}
	}
	c.won = ratio(float64(won), float64(pairs))
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			allBetter = allBetter && sign*(n-b) < 0
		}
	}
	baseSpread := ratio(c.base[2]-c.base[0], c.base[1])
	spread := max(baseSpread, ratio(c.next[2]-c.next[0], c.next[1]))
	gated := def.Bound > 0
	switch {
	case gated && def.Name != "setup_s" && spread > def.Bound && !allBetter:
		c.verdict = "unresolved"
	case gated && c.delta > def.Bound:
		c.verdict = "regress"
	case c.won >= 0.9 && -c.delta > baseSpread:
		c.verdict = "gain"
	case gated:
		c.verdict = "ok"
	default:
		c.verdict = "-"
	}
	return c
}

// compared lists the rows -compare prints, in order: the gated metrics,
// then the untraced pass's ungated ones, per-layer and per op type. A
// row missing from the result files is skipped.
var compared = func() []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		out = append(out, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	ops := make([]string, 0, len(opPaths))
	for op := range opPaths {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		out = append(out,
			metricDef{Name: op + "_p50_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: op + "_p99_ms", Unit: "ms", Better: "lower"})
	}
	return out
}()

// runs is one side of a comparison, read from its result files.
type runs struct {
	order   []string                        // workloads, in the order first seen
	metrics map[string]map[string][]float64 // workload → metric → value per file, in file order
	ops     map[string][2]int               // workload → attempted and failed ops over all files
}

// failRatio is a workload's failed ops over attempted ones, pooled over
// the side's files.
func (r *runs) failRatio(workload string) float64 {
	n := r.ops[workload]
	return ratio(float64(n[1]), float64(n[0]))
}

func loadRuns(paths []string) (*runs, error) {
	out := &runs{metrics: map[string]map[string][]float64{}, ops: map[string][2]int{}}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("compare: %w", err)
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("compare: %s: %w", path, err)
		}
		for _, wr := range rf.Workloads {
			if out.metrics[wr.Name] == nil {
				out.metrics[wr.Name] = map[string][]float64{}
				out.order = append(out.order, wr.Name)
			}
			for name, m := range wr.Metrics {
				out.metrics[wr.Name][name] = append(out.metrics[wr.Name][name], m.Value)
			}
			n := out.ops[wr.Name]
			out.ops[wr.Name] = [2]int{n[0] + wr.Attempted, n[1] + wr.Failed}
		}
	}
	return out, nil
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the delta, the bound, the share of pairs won and the
// verdict, then each side's fail_ratio, which regresses on any rise. It
// reports whether anything regressed.
func compareFiles(basePaths, newPaths []string, w io.Writer) (bool, error) {
	base, err := loadRuns(basePaths)
	if err != nil {
		return false, err
	}
	next, err := loadRuns(newPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %8s %6s %5s %s\n",
		"workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "delta", "bound", "won", "verdict")
	regressed := false
	for _, wl := range base.order {
		if next.metrics[wl] == nil {
			continue
		}
		for _, def := range compared {
			b, n := base.metrics[wl][def.Name], next.metrics[wl][def.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			c := judge(def, b, n)
			bound := "-"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			}
			fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %+7.1f%% %6s %4.0f%% %s\n",
				wl, def.Name, spread3(c.base), spread3(c.next), 100*c.delta, bound, 100*c.won, c.verdict)
			regressed = regressed || c.verdict == "regress"
		}
		bf, nf := base.failRatio(wl), next.failRatio(wl)
		verdict := "ok"
		if nf > bf {
			verdict, regressed = "regress", true
		}
		fmt.Fprintf(w, "%-12s %-16s %-30.4g %-30.4g %8s %6s %5s %s\n", wl, "fail_ratio", bf, nf, "", "any", "", verdict)
	}
	return regressed, nil
}

func spread3(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
