package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is an integer gauge with atomic load/store semantics.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counter is an integer counter that only grows.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta, which must not be negative.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Labels renders label pairs (key, value, key, value, ...) into the
// canonical Prometheus form `k1="v1",k2="v2"`, sorted by key so equal
// label sets always produce equal strings (series identity).
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry.Labels: odd number of arguments")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type series struct {
	labels  string
	hist    *Histogram
	gauge   *Gauge
	counter *Counter
	fn      func() int64
}

type family struct {
	name string
	help string
	kind string
	// series is mutated by lazy registration under the owning
	// registry's lock; there is no sibling mutex, so the guard is
	// qualified: any holder of a Registry.mu may touch it. Scrape paths
	// must snapshot under the lock and render from the copy.
	series map[string]*series `sem:"guardedby(Registry.mu)"`
}

// Registry is a collection of named metric families rendered in
// Prometheus text exposition format. Registration is mutex-guarded
// (get-or-create); the returned Histogram/Gauge/Counter handles are
// lock-free,
// so hot paths register once and observe through the handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family `sem:"guardedby(mu)"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// Histogram returns the histogram series name{labels}, creating it on
// first use. labels must come from Labels (or be empty).
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels, hist: &Histogram{}}
		f.series[labels] = s
	}
	return s.hist
}

// Gauge returns the gauge series name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels, gauge: &Gauge{}}
		f.series[labels] = s
	}
	return s.gauge
}

// Counter returns the counter series name{labels}, creating it on
// first use.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels, counter: &Counter{}}
		f.series[labels] = s
	}
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time (for counters maintained elsewhere, e.g. cache stats).
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	f.series[labels] = &series{labels: labels, fn: fn}
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	f.series[labels] = &series{labels: labels, fn: fn}
}

// familySnapshot is a scrape-time copy of one family: name/help/kind
// plus the series pointers sorted by label key. The registry's series
// maps are mutated under r.mu by lazy registration (Histogram et al.),
// so the snapshot must be taken under the lock; the *series values
// themselves are immutable after creation and their reads (histogram
// buckets, gauge loads) are atomic, so rendering from the copy needs no
// lock.
type familySnapshot struct {
	name, help, kind string
	series           []*series
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4). Families and series are emitted in sorted
// order so the output layout is deterministic given equal counters.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		fams = append(fams, familySnapshot{name: f.name, help: f.help, kind: f.kind, series: ss})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist.Snapshot())
			case s.gauge != nil:
				writeSample(&b, f.name, s.labels, strconv.FormatInt(s.gauge.Load(), 10))
			case s.counter != nil:
				writeSample(&b, f.name, s.labels, strconv.FormatInt(s.counter.Load(), 10))
			case s.fn != nil:
				writeSample(&b, f.name, s.labels, strconv.FormatInt(s.fn(), 10))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	var cum int64
	for i := 0; i <= HistBuckets; i++ {
		cum += s.Counts[i]
		le := "+Inf"
		if i < HistBuckets {
			le = formatSeconds(bucketBoundNS(i))
		}
		ls := `le="` + le + `"`
		if labels != "" {
			ls = labels + "," + ls
		}
		writeSample(b, name+"_bucket", ls, strconv.FormatInt(cum, 10))
	}
	writeSample(b, name+"_sum", labels, formatSeconds(s.SumNS))
	writeSample(b, name+"_count", labels, strconv.FormatInt(cum, 10))
}

// formatSeconds renders nanoseconds as decimal seconds with the
// shortest exact representation (bucket bounds are exact binary
// multiples of 1µs, so this never rounds).
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
