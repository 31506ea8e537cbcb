package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"semacyclic/internal/telemetry"
)

// config is one benchmark invocation.
type config struct {
	seed   int64
	window time.Duration
	// traced adds a traced pass per workload; the window is then split
	// evenly between the untraced and the traced pass.
	traced bool
	// scale multiplies every input size: 1 gives the documented sizes,
	// the smoke test runs far smaller ones through the same code.
	scale float64
}

// warmup is the untimed closed-loop run before each window: long
// enough for caches to fill and lazy set-up to finish, short next to
// the window.
func (c config) warmup() time.Duration {
	w := c.window / 5
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

// size scales an input size, keeping it at least min.
func (c config) size(n, min int) int {
	if s := int(float64(n) * c.scale); s > min {
		return s
	}
	return min
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients: each sends its next
	// op only after its previous one completed.
	clients int
	// inputs generates everything the workload sends from the seed.
	// Untimed; one input set serves every set-up of the run.
	inputs func(cfg config) (inputs, error)
}

// inputs is a workload's generated input set.
type inputs interface {
	// setup builds a fresh system under test for the given number of
	// clients, timing its phases in ph.
	setup(ph *phases, clients int) (system, error)
}

// system is one built system under test.
type system interface {
	// url is the base URL of the in-process semacycd, "" when the
	// workload drives the library.
	url() string
	// op performs client cl's next op, timed through cl.call or cl.lib,
	// and checks its output; an error counts as a failed op.
	op(cl *client) error
	// counters reads the global work counters, keyed by the sample
	// names /metrics gives them.
	counters() (map[string]float64, error)
	// report runs the checks and library measurements that need the
	// whole window (a replica replay), adding to ws.tally.
	report(ws *windowStats) error
	close()
}

// phases times the named phases of one set-up.
type phases struct {
	ns   map[string]float64
	name string
	sw   telemetry.Stopwatch
}

func newPhases() *phases { return &phases{ns: map[string]float64{}} }

// start ends the running phase, if any, and starts the named one.
func (p *phases) start(name string) {
	p.stop()
	p.name, p.sw = name, telemetry.StartTimer()
}

func (p *phases) stop() {
	if p.name != "" {
		p.ns[p.name] += float64(p.sw.ElapsedNS())
		p.name = ""
	}
}

// windowStats is what one timed window measured, merged over clients.
type windowStats struct {
	elapsed float64              // window wall time, seconds
	ops     map[string]int       // completed ops per op type
	total   int                  // completed ops
	slices  []int                // completed ops per slice of the window
	lat     []float64            // every op latency in ns, sorted
	kindLat map[string][]float64 // op latencies per op type, sorted
	opNS    float64              // summed op latency
	kindNS  map[string]float64   // summed op latency per op type
	tally   map[string]float64
	delta   map[string]float64 // counters after minus before the window
	selfNS  map[string]float64 // traced pass: self time per metric name
	spanNS  float64            // traced pass: summed op span time
}

// passResult is one pass's outcome.
type passResult struct {
	ws        *windowStats
	setupS    []float64 // each set-up's wall time, seconds
	phases    map[string]float64
	attempted int
	failed    int
	failures  []string
	leaked    int
	mallocs   float64
	gcCycles  float64
	gcPauseNS float64
	heapBytes float64
	truncated int
	spans     []opTrace
}

// runPass builds the system reps times, or more while set-up is cheap
// (see minSetup), keeping the last; warms it up; and drives one timed
// window of length d. In a traced pass every op records spans.
func runPass(w *workload, in inputs, cfg config, d time.Duration, reps int, traced bool) (*passResult, error) {
	res := &passResult{}
	runtime.GC()
	goroutines := runtime.NumGoroutine()

	var sys system
	var phaseRuns []map[string]float64
	var spent float64
	for rep := 0; rep < reps || (reps > 1 && spent < minSetup && rep < maxSetupReps); rep++ {
		if sys != nil {
			sys.close()
		}
		ph := newPhases()
		sw := telemetry.StartTimer()
		s, err := in.setup(ph, w.clients)
		ph.stop()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		sys = s
		res.setupS = append(res.setupS, sw.ElapsedNS().Seconds())
		spent += res.setupS[rep]
		phaseRuns = append(phaseRuns, ph.ns)
	}
	res.phases = medianPhases(phaseRuns)
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(i, sys.url(), traced)
	}

	drive(clients, sys, cfg.warmup(), false)
	before, err := sys.counters()
	if err != nil {
		closeAll(sys, clients)
		return nil, fmt.Errorf("%s: reading counters: %w", w.name, err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	elapsed := drive(clients, sys, d, true)
	runtime.ReadMemStats(&ms1)
	after, err := sys.counters()
	if err != nil {
		closeAll(sys, clients)
		return nil, fmt.Errorf("%s: reading counters: %w", w.name, err)
	}
	res.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	res.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	res.gcPauseNS = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)

	ws := merge(clients, elapsed)
	ws.delta = make(map[string]float64, len(after))
	for k, v := range after {
		ws.delta[k] = v - before[k]
	}
	res.ws = ws
	for _, cl := range clients {
		res.attempted += cl.attempted
		res.failed += cl.failed
		res.failures = append(res.failures, cl.failures...)
		res.truncated += cl.truncated
		res.spans = append(res.spans, cl.kept...)
	}
	if err := sys.report(ws); err != nil {
		res.failed++
		res.failures = append(res.failures, err.Error())
	}

	// The heap the system under test retains: live heap with it up but
	// idle, its client connections closed and their server goroutines
	// gone, minus live heap once it is gone too. The benchmark's own
	// records are live in both readings.
	for _, cl := range clients {
		cl.close()
	}
	quiesce()
	up := liveHeap()
	sys.close()
	res.leaked = settleGoroutines(goroutines)
	res.heapBytes = up - liveHeap()
	return res, nil
}

// liveHeap returns the bytes of live heap objects. The second
// collection frees what the first only moved to the sync.Pool victim
// caches.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// closeAll drops the clients' connections, then stops the system.
func closeAll(sys system, clients []*client) {
	for _, cl := range clients {
		cl.close()
	}
	sys.close()
}

// drive runs every client's closed loop for d and waits for all of
// them; it returns the wall time from start until the last op ended.
func drive(clients []*client, sys system, d time.Duration, record bool) float64 {
	sw := telemetry.StartTimer()
	var wg sync.WaitGroup
	for _, cl := range clients {
		cl.record, cl.window, cl.windowLen = record, sw, d
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for sw.Elapsed() < d {
				if record {
					cl.attempted++
				}
				if err := sys.op(cl); err != nil {
					cl.fail(err)
				}
				cl.n++
			}
		}(cl)
	}
	wg.Wait()
	return sw.ElapsedNS().Seconds()
}

// merge folds the clients' window records into one windowStats.
func merge(clients []*client, elapsed float64) *windowStats {
	ws := &windowStats{
		elapsed: elapsed,
		slices:  make([]int, windowSlices),
		ops:     map[string]int{},
		kindLat: map[string][]float64{},
		kindNS:  map[string]float64{},
		tally:   map[string]float64{},
		selfNS:  map[string]float64{},
	}
	for _, cl := range clients {
		for i, n := range cl.slices {
			ws.slices[i] += n
		}
		for k, v := range cl.lat {
			ws.ops[k] += len(v)
			ws.total += len(v)
			ws.kindLat[k] = append(ws.kindLat[k], v...)
			ws.lat = append(ws.lat, v...)
			for _, ns := range v {
				ws.kindNS[k] += ns
				ws.opNS += ns
			}
		}
		for k, v := range cl.tally {
			ws.tally[k] += v
		}
		for k, v := range cl.selfNS {
			ws.selfNS[k] += v
		}
		ws.spanNS += cl.spanNS
	}
	sort.Float64s(ws.lat)
	for _, v := range ws.kindLat {
		sort.Float64s(v)
	}
	return ws
}

// medianPhases picks, per phase, the median time across set-ups.
func medianPhases(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range runs[len(runs)-1] {
		var v []float64
		for _, r := range runs {
			v = append(v, r[name])
		}
		out[name] = median(v)
	}
	return out
}

// settleGoroutines waits up to two seconds for goroutines the pass
// started (connection readers, server workers) to exit, and returns how
// many more than before are still running.
func settleGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > before; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n < before {
		return 0
	}
	return n - before
}

// quiesce waits, up to two seconds, until the goroutine count has not
// fallen for 50 ms: the goroutines of closed connections have exited.
func quiesce() {
	n := runtime.NumGoroutine()
	for i, still := 0, 0; i < 200 && still < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		} else {
			still++
		}
	}
}

// newRand derives a deterministic generator for one input stream.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// An untraced pass builds the system under test setupReps times at
// least, and a cheap set-up again until minSetup seconds have been
// spent in set-up or maxSetupReps is reached, so that setup_s, the
// median, rests on enough samples to be steady.
const (
	setupReps    = 5
	minSetup     = 0.5
	maxSetupReps = 25
)

// minTail is the sample count a p99 must rest on: ten samples beyond
// the 99th percentile.
const minTail = 1000

// windowSlices is the number of equal slices a window's throughput is
// counted in; ops_per_s is their median.
const windowSlices = 20
