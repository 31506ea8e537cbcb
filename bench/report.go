package main

import (
	"fmt"
	"sort"
	"strings"
)

// opPaths maps each op type to the semacycd endpoint label its
// request-duration histogram carries.
var opPaths = map[string]string{
	"decide":   "/decide",
	"evaluate": "/evaluate",
	"patch":    "/instances/patch",
}

// workCounters are the process-global obs counters reported per op.
var workCounters = map[string]string{
	"chase.triggers_fired": "semacyclic.chase.triggers_fired",
	"search.candidates":    "semacyclic.search.candidates",
	"containment.checks":   "semacyclic.containment.checks",
	"hom.enumerations":     "semacyclic.hom.enumerations",
	"hom.backtracks":       "semacyclic.hom.backtracks",
}

var (
	decisionLayers = []string{"core", "unsatisfiable", "quotient", "chase-subset", "complete"}
	settledLayers  = append(append([]string(nil), decisionLayers...), "budget")
)

// endToEndMetrics computes the end-to-end and per-op-type metrics of
// an untraced pass. Every percentile carries its sample count.
func endToEndMetrics(p *passResult) metricSet {
	ws := p.ws
	m := metricSet{}
	ops := float64(ws.total)
	m.setN("latency_p50_ms", percentile(ws.lat, 0.50)/1e6, len(ws.lat))
	m.setN("latency_p99_ms", percentile(ws.lat, 0.99)/1e6, len(ws.lat))
	// The median over the window's slices, so that a stall of the host
	// in one slice does not move it.
	perSlice := make([]float64, len(ws.slices))
	for i, n := range ws.slices {
		perSlice[i] = float64(n) * windowSlices / ws.elapsed
	}
	m.set("ops_per_s", median(perSlice))
	m.set("allocs_per_op", ratio(p.mallocs, ops))
	m.set("heap_mb", p.heapBytes/(1<<20))
	m.set("setup_s", median(p.setupS))
	for kind, lat := range ws.kindLat {
		m.setN(kind+"_p50_ms", percentile(lat, 0.50)/1e6, len(lat))
		m.setN(kind+"_p99_ms", percentile(lat, 0.99)/1e6, len(lat))
	}
	return m
}

// checkTails rejects a result with a p99 on fewer than minTail samples,
// ten beyond the 99th percentile.
func checkTails(res *resultFile) error {
	for _, wr := range res.Workloads {
		for name, m := range wr.Metrics {
			if strings.HasSuffix(name, "_p99_ms") && m.Samples < minTail {
				return fmt.Errorf("%s: %s rests on %d samples, fewer than the %d a p99 needs: the run is invalid",
					wr.Name, name, m.Samples, minTail)
			}
		}
	}
	return nil
}

// layerMetrics computes every per-layer metric: /metrics deltas,
// response tallies, library timings and runtime statistics from the
// untraced pass un, span self times from the traced pass tr.
func layerMetrics(un, tr *passResult) metricSet {
	m := metricSet{}
	ws, d, t := un.ws, un.ws.delta, un.ws.tally
	ops := float64(ws.total)

	// Time shares: span self times of the traced pass, and the tracing
	// overhead as traced over untraced mean latency.
	for _, def := range perLayer {
		if strings.HasPrefix(def.Name, "self.") {
			m.set(def.Name, 100*ratio(tr.ws.selfNS[def.Name], tr.ws.spanNS))
		}
	}
	unMean := ratio(ws.opNS, ops)
	trMean := ratio(tr.ws.opNS, float64(tr.ws.total))
	m.set("trace.overhead", 100*ratio(trMean-unMean, unMean))
	m.set("trace.truncated", ratio(float64(tr.truncated), float64(tr.ws.total)))

	// server
	serverNS := t["lib.wall_ns"]
	for kind, path := range opPaths {
		ns := 1e9 * d[`semacycd_request_duration_seconds_sum{endpoint="`+path+`"}`]
		serverNS += ns
		m.set("server."+kind+".share", 100*ratio(ns, ws.kindNS[kind]))
	}
	m.set("client.overhead", 100*ratio(ws.opNS-serverNS, ws.opNS))
	for _, c := range []string{"decision", "sigma", "prepared", "plan"} {
		hits := d[`semacycd_cache_hits_total{cache="`+c+`"}`]
		misses := d[`semacycd_cache_misses_total{cache="`+c+`"}`]
		m.set("server."+c+"_cache.hit_ratio", ratio(hits, hits+misses))
	}
	m.set("server.sigma_cache.evictions_per_op", ratio(d[`semacycd_cache_evictions_total{cache="sigma"}`], ops))
	reducer := func(label string) float64 { return d[`semacycd_reducer_decisions_total{decision="`+label+`"}`] }
	runs := reducer("cold") + reducer("reused") + reducer("repaired") + reducer("recomputed") + reducer("mixed")
	for _, label := range []string{"reused", "repaired", "recomputed"} {
		m.set("server.reducer."+label+"_ratio", ratio(reducer(label), runs))
	}
	m.set("server.shed", d[promName("server.shed")])
	atoms := d[`semacycd_delta_atoms_total{op="insert"}`] + d[`semacycd_delta_atoms_total{op="delete"}`]
	m.set("server.delta_atoms_per_patch", ratio(atoms, d["semacycd_patches_total"]))

	// core
	for _, l := range decisionLayers {
		ns := 1e9 * d[`semacycd_decision_layer_duration_seconds_sum{layer="`+l+`"}`]
		m.set("core.layer."+l, 100*ratio(ns, ws.opNS))
	}
	for _, l := range settledLayers {
		m.set("core.settled."+l, ratio(t["settled."+l], t["decide.n"]))
	}

	// chase, containment, hom
	for name, counter := range workCounters {
		m.set(name, ratio(d[promName(counter)], ops))
	}
	m.set("chase.atoms", ratio(t["chase.atoms"], t["decide.n"]))
	m.set("containment.rewrite_disjuncts", ratio(t["containment.rewrite_disjuncts"], t["decide.n"]))

	// yannakakis
	m.set("yannakakis.rows_scanned", ratio(t["eval.rows_scanned"], t["eval.n"]))
	m.set("yannakakis.index_hits", ratio(t["eval.index_hits"], t["eval.n"]))
	m.set("yannakakis.semijoin_dropped_rows", ratio(t["eval.semijoin_dropped_rows"], t["eval.n"]))
	for _, plan := range []string{"path3-free", "bool-path6"} {
		m.set("yannakakis.join_rows."+plan, ratio(t["join_rows."+plan], t["n."+plan]))
	}
	m.set("yannakakis.answers_per_join_row", ratio(t["answers.path3-free"], t["join_rows.path3-free"]))
	for _, q := range evalQueries {
		m.set("eval.share."+q[0], 100*ratio(t["ns."+q[0]], ws.opNS))
	}

	// instance and delta evaluation, from the replica
	applyMean := ratio(t["replica.apply_ns"], t["replica.apply_n"])
	m.set("instance.apply_delta.share", 100*ratio(applyMean, ratio(ws.kindNS["patch"], float64(ws.ops["patch"]))))
	m.set("yannakakis.delta_vs_full", ratio(t["replica.delta_ns"], t["replica.full_ns"]))
	m.set("yannakakis.trees_repaired", ratio(t["replica.trees_repaired"], t["replica.samples"]))
	m.set("yannakakis.trees_recomputed", ratio(t["replica.trees_recomputed"], t["replica.samples"]))

	// set-up phases
	setupNS := 1e9 * median(un.setupS)
	for _, ph := range []string{"start", "load", "prime", "parse", "interned", "compile"} {
		m.set("setup."+ph, 100*ratio(un.phases[ph], setupNS))
	}

	// runtime and checks
	m.set("go.gc_cycles_per_kop", ratio(un.gcCycles, ops/1000))
	m.set("go.gc_pause.share", 100*ratio(un.gcPauseNS, 1e9*ws.elapsed))
	leaked := un.leaked
	if tr.leaked > leaked {
		leaked = tr.leaked
	}
	m.set("go.goroutines_leaked", float64(leaked))
	return m
}

// selfRow is one line of the traced pass's self-time table.
type selfRow struct {
	Span    string  `json:"span"`
	MSPerOp float64 `json:"ms_per_op"`
	Share   float64 `json:"share"`
}

// selfTable lists the traced pass's self time per span metric, largest
// first.
func selfTable(tr *passResult) []selfRow {
	var rows []selfRow
	for name, ns := range tr.ws.selfNS {
		rows = append(rows, selfRow{
			Span:    name,
			MSPerOp: ratio(ns, float64(tr.ws.total)) / 1e6,
			Share:   100 * ratio(ns, tr.ws.spanNS),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Share > rows[j].Share })
	return rows
}
