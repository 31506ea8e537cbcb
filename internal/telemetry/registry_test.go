package telemetry

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exact /metrics exposition format:
// cumulative le buckets in seconds, _sum/_count, sorted families and
// series, label rendering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_duration_seconds", "request latency", Labels("op", "x"))
	h.Observe(1000)    // 1µs → bucket 0
	h.Observe(3000000) // 3ms → bucket le=0.004096
	r.CounterFunc("test_hits_total", "cache hits", Labels("cache", "x"), func() int64 { return 42 })
	g := r.Gauge("test_queue_depth", "queue depth", "")
	g.Set(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_duration_seconds request latency
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{op="x",le="1e-06"} 1
test_duration_seconds_bucket{op="x",le="2e-06"} 1
test_duration_seconds_bucket{op="x",le="4e-06"} 1
test_duration_seconds_bucket{op="x",le="8e-06"} 1
test_duration_seconds_bucket{op="x",le="1.6e-05"} 1
test_duration_seconds_bucket{op="x",le="3.2e-05"} 1
test_duration_seconds_bucket{op="x",le="6.4e-05"} 1
test_duration_seconds_bucket{op="x",le="0.000128"} 1
test_duration_seconds_bucket{op="x",le="0.000256"} 1
test_duration_seconds_bucket{op="x",le="0.000512"} 1
test_duration_seconds_bucket{op="x",le="0.001024"} 1
test_duration_seconds_bucket{op="x",le="0.002048"} 1
test_duration_seconds_bucket{op="x",le="0.004096"} 2
test_duration_seconds_bucket{op="x",le="0.008192"} 2
test_duration_seconds_bucket{op="x",le="0.016384"} 2
test_duration_seconds_bucket{op="x",le="0.032768"} 2
test_duration_seconds_bucket{op="x",le="0.065536"} 2
test_duration_seconds_bucket{op="x",le="0.131072"} 2
test_duration_seconds_bucket{op="x",le="0.262144"} 2
test_duration_seconds_bucket{op="x",le="0.524288"} 2
test_duration_seconds_bucket{op="x",le="1.048576"} 2
test_duration_seconds_bucket{op="x",le="2.097152"} 2
test_duration_seconds_bucket{op="x",le="4.194304"} 2
test_duration_seconds_bucket{op="x",le="8.388608"} 2
test_duration_seconds_bucket{op="x",le="+Inf"} 2
test_duration_seconds_sum{op="x"} 0.003001
test_duration_seconds_count{op="x"} 2
# HELP test_hits_total cache hits
# TYPE test_hits_total counter
test_hits_total{cache="x"} 42
# HELP test_queue_depth queue depth
# TYPE test_queue_depth gauge
test_queue_depth 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryReuseAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h_seconds", "h", Labels("k", "v"))
	b := r.Histogram("h_seconds", "h", Labels("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same histogram")
	}
	if c := r.Histogram("h_seconds", "h", Labels("k", "w")); c == a {
		t.Fatal("distinct labels must return distinct series")
	}
	if got := Labels("b", "2", "a", "1"); got != `a="1",b="2"` {
		t.Fatalf("Labels not sorted by key: %q", got)
	}
	if got := Labels("k", `a"b\c`); got != `k="a\"b\\c"` {
		t.Fatalf("label escaping: %q", got)
	}
	if Labels() != "" {
		t.Fatal("empty Labels must render empty")
	}
}

// TestRegistryCounter: Counter returns one handle per series, and the
// scrape renders its running total as a counter sample.
func TestRegistryCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", Labels("k", "v")).Add(2)
	r.Counter("c_total", "c", Labels("k", "v")).Add(1)
	r.Counter("c_total", "c", Labels("k", "w")).Add(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP c_total c\n# TYPE c_total counter\nc_total{k=\"v\"} 3\nc_total{k=\"w\"} 5\n"
	if got := b.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

// TestConcurrentScrapeAndRegister pins the fix for a fatal concurrent
// map read/write: layer and eval-method series register lazily at
// request time, so a scrape iterating a family's series map while a
// first-time registration inserts into it crashed the process. The
// scrape must render from a snapshot taken under the registry lock.
// Run with -race.
func TestConcurrentScrapeAndRegister(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i == 0 {
				close(started)
			}
			// Bounded label space keeps scrapes cheap; CounterFunc
			// re-assigns its key every iteration, so the family maps
			// are written for the whole lifetime of the scrape loop.
			ls := Labels("k", strconv.Itoa(i%256))
			v := int64(i)
			r.Histogram("race_hist_seconds", "h", ls).Observe(DurationNS(i))
			r.Gauge("race_gauge", "g", ls).Set(v)
			r.CounterFunc("race_counter_total", "c", ls, func() int64 { return v })
		}
	}()
	<-started
	for i := 0; i < 200; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func TestRingBuffer(t *testing.T) {
	ring := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		ring.Add(&TraceEntry{Endpoint: "/decide", Root: &Span{Name: "request"}})
	}
	es := ring.Entries()
	if len(es) != 3 {
		t.Fatalf("len = %d, want 3", len(es))
	}
	for i, want := range []int64{5, 4, 3} {
		if es[i].ID != want {
			t.Fatalf("entry %d has id %d, want %d (newest first)", i, es[i].ID, want)
		}
	}
	empty := NewTraceRing(4)
	if len(empty.Entries()) != 0 {
		t.Fatal("empty ring must return no entries")
	}
}
