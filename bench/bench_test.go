package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []layerDef                   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bm benchmarkJSON
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json equal to the
// workload and metric tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d = %+v, the table's is %q", i, w, workloads[i].name)
		}
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table")
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	setup := 0.0
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setup {
			t.Errorf("%s: bound %v is larger than setup_s's %v", d.Name, d.Bound, setup)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	for op := range opPaths {
		check(op + "_p50_ms")
		check(op + "_p99_ms")
	}
	check("fail_ratio")
}

// TestSmoke runs every workload through the same driver at tiny sizes
// and short windows, traced, and checks that every answer check passes,
// every BENCHMARK.json metric and fail_ratio is printed for every
// workload, and every per-op-type metric for every workload issuing
// that op type.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkJSON(t)
	cfg := config{seed: 1, window: 300 * time.Millisecond, traced: true, scale: 0.05}
	selected := make([]*workload, len(workloads))
	for i := range workloads {
		selected[i] = &workloads[i]
	}
	var out bytes.Buffer
	res, err := runAll(cfg, selected, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
	}
	printed := map[string]bool{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && !strings.HasPrefix(f[0], "#") {
			printed[f[0]+" "+f[1]] = true
		}
	}
	for _, wr := range res.Workloads {
		want := []string{"fail_ratio"}
		for _, d := range bm.EndToEnd {
			want = append(want, d.Name)
		}
		for _, d := range bm.PerLayer {
			want = append(want, d.Name)
		}
		for op := range wr.Ops {
			want = append(want, op+"_p50_ms", op+"_p99_ms")
		}
		for _, name := range want {
			if !printed[wr.Name+" "+name] {
				t.Errorf("%s %s was not printed", wr.Name, name)
			}
		}
	}

	for _, traced := range []bool{false, true} {
		res.Traced = traced
		var line bytes.Buffer
		if err := printSummary(&line, res); err != nil {
			t.Fatal(err)
		}
		var s summary
		if err := json.Unmarshal(line.Bytes(), &s); err != nil {
			t.Fatalf("summary line: %v", err)
		}
		want := len(bm.EndToEnd)
		if traced {
			want = len(bm.PerLayer)
		}
		if !s.Correct || s.Failed != 0 || len(s.Metrics) != want*len(workloads) {
			t.Errorf("traced=%v: summary correct=%v failed=%d with %d metrics, want %d",
				traced, s.Correct, s.Failed, len(s.Metrics), want*len(workloads))
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(spans, res); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(spans); err != nil || bytes.Count(b, []byte("\n")) == 0 {
		t.Errorf("span file: %d bytes, %v", len(b), err)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

// TestCompareFailRatio checks that -compare calls any rise in failed
// ops a regression, whatever the other metrics read.
func TestCompareFailRatio(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, failed int) string {
		path := filepath.Join(dir, name)
		m := metricSet{}
		m.set("ops_per_s", 100)
		rf := &resultFile{Workloads: []*workloadResult{{Name: "w", Attempted: 1000, Failed: failed, Metrics: m}}}
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok0, ok1, bad := file("ok0.json", 0), file("ok1.json", 0), file("bad.json", 1)
	for _, c := range []struct {
		base, next []string
		want       bool
	}{
		{[]string{ok0, ok1}, []string{ok1, ok0}, false},
		{[]string{ok0, ok1}, []string{ok1, bad}, true},
		{[]string{bad, ok1}, []string{ok1, ok0}, false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(c.base, c.next, &out)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.want {
			t.Errorf("compare %v %v: regressed = %v, want %v\n%s", c.base, c.next, regressed, c.want, out.String())
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	tput := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	ungated := metricDef{Name: "latency_p50_ms", Better: "lower"}
	for _, c := range []struct {
		def        metricDef
		base, next []float64
		want       string
	}{
		{lat, []float64{10, 10.1, 9.9}, []float64{10.2, 10, 10.1}, "ok"},
		{lat, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "regress"},
		{lat, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "gain"},
		{lat, []float64{10, 14, 7}, []float64{10, 13, 8}, "unresolved"},
		{lat, []float64{10, 14, 7}, []float64{1, 2, 1.5}, "gain"},
		{tput, []float64{100, 101, 99}, []float64{80, 81, 79}, "regress"},
		{tput, []float64{100, 101, 99}, []float64{120, 121, 119}, "gain"},
		{setup, []float64{10, 14, 7}, []float64{10, 13, 8}, "ok"},
		{setup, []float64{10, 14, 7}, []float64{13, 18, 9}, "regress"},
		{ungated, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "-"},
		{ungated, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "gain"},
	} {
		if got := judge(c.def, c.base, c.next).verdict; got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.base, c.next, got, c.want)
		}
	}
}
