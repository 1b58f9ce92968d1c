package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ncg/internal/ensemble"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // rank 990 leaves 9 beyond
		{1000, 0.99, true}, // rank 990 leaves 10 beyond
		{99, 0.90, false},
		{100, 0.90, true},
		{1, 0.99, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		v, ok := tail(xs, tc.q)
		if ok != tc.want {
			t.Errorf("n=%d q=%g: reportable=%v, want %v", tc.n, tc.q, ok, tc.want)
		}
		if beyond := 0; ok {
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%g: %d samples beyond %g", tc.n, tc.q, beyond, v)
			}
		}
		line := timingLine("x", "ms", xs, tc.q)
		if !strings.Contains(line, "(n="+strconv.Itoa(tc.n)+")") {
			t.Errorf("n=%d: the sample count is not printed: %q", tc.n, line)
		}
		if got := strings.Contains(line, "=n/a"); got == tc.want {
			t.Errorf("n=%d q=%g: printed %q", tc.n, tc.q, line)
		}
		if !tc.want && tailOrZero(xs, tc.q) != 0 {
			t.Errorf("n=%d q=%g: an unreportable percentile reached the result line", tc.n, tc.q)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		// Two overlapping children (a parallel pass) cover [10, 60).
		{ID: 2, Parent: 1, Layer: "game", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "graph", Start: 30, End: 60},
		// A grandchild inside span 2.
		{ID: 4, Parent: 2, Layer: "dynamics", Start: 15, End: 20},
		// A child reaching past its parent is clipped to it.
		{ID: 5, Parent: 4, Layer: "graph", Start: 18, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 50, "game": 25, "graph": 30 + 7, "dynamics": 3}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], d)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "bench", "root")
	child := tr.begin(root.id, "game", "child")
	time.Sleep(time.Millisecond)
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[1].Parent != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if self["game"] != spans[0].dur() || self["bench"] != spans[1].dur()-spans[0].dur() {
		t.Errorf("self times = %v for spans %+v", self, spans)
	}
}

// benchmarkJSON reads the metric declarations of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer, names := benchmarkJSON(t)
	for _, tc := range []struct {
		defs []metricDef
		json map[string]string
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(tc.defs) != len(tc.json) {
			t.Errorf("%d metrics declared, BENCHMARK.json lists %d", len(tc.defs), len(tc.json))
		}
		res := newResult()
		for _, d := range tc.defs {
			if unit, ok := tc.json[d.name]; !ok || unit != d.unit {
				t.Errorf("metric %s (%s) is not in BENCHMARK.json with that unit", d.name, d.unit)
			}
			res.metrics[d.name] = 1
		}
		// Every metric name the run prints, in the table and in the
		// result line, is declared in BENCHMARK.json.
		var table bytes.Buffer
		printTable(&table, res, tc.defs)
		for _, line := range strings.Split(strings.TrimSpace(table.String()), "\n")[1:] {
			f := strings.Fields(line)
			if _, ok := tc.json[f[0]]; !ok && f[0] != "operations:" {
				t.Errorf("printed metric %q is not in BENCHMARK.json", f[0])
			}
		}
		line, err := resultLine(res, tc.defs)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		for name, m := range out.Metrics {
			if tc.json[name] != m.Unit {
				t.Errorf("result metric %s (%s) is not in BENCHMARK.json with that unit", name, m.Unit)
			}
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, names[i], w.name)
		}
	}
}

// The spines flush a sink after every emitted shard, finding Flush by type
// assertion; the traced wrapper must keep that behaviour.
func TestTracedSinkForwardsFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := newTracer()
	sink := &tracedSink[ensemble.Record]{inner: ensemble.NewJSONLSink(&buf), at: traceAt{tr, 0}, layer: "ensemble", name: "sink"}
	sc, ok := ensemble.Lookup(figureSeries[0])
	if !ok {
		t.Fatal("no scenario")
	}
	if _, err := ensemble.Execute(sc, ensemble.Options{Ns: []int{10}, Trials: 4, Workers: 1, ShardSize: 1}, sink); err != nil {
		t.Fatal(err)
	}
	if _, count := spanTotals(tr.snapshot()); count["sink"] != 8 {
		t.Errorf("%d sink spans, want 4 writes and 4 flushes", count["sink"])
	}
	if bytes.Count(buf.Bytes(), []byte("\n")) != 4 {
		t.Errorf("sink output:\n%s", buf.String())
	}
}

func TestResultLineRejectsUndeclaredMetric(t *testing.T) {
	res := newResult()
	res.metrics["no_such_metric"] = 1
	if _, err := resultLine(res, endToEnd); err == nil {
		t.Fatal("an undeclared metric was accepted")
	}
}

// The workloads at tiny sizes: every output check runs and passes, and a
// traced run sets only declared metrics.
func TestWorkloadsAtTinySizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(cfg config) (*result, error)
	}{
		{"figures", func(cfg config) (*result, error) {
			return figures(cfg, figuresSize{ns: []int{10, 12}, trials: 3, checkEvery: 1})
		}},
		{"hunt", func(cfg config) (*result, error) { return hunt(cfg, huntSize{n: 6, instances: 2, maxStates: 300}) }},
		{"service", func(cfg config) (*result, error) {
			return service(cfg, serviceSize{n: 6, instances: 3, maxStates: 50})
		}},
		{"landmark", func(cfg config) (*result, error) {
			return landmark(cfg, landmarkSize{n: 96, extra: 12, k: 4, steps: 3})
		}},
	} {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{seed: 7, seconds: 1, trace: traced, dir: t.TempDir(), log: &log}
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v\n%s", tc.name, traced, err, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, err := resultLine(res, defs); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			if res.attempted < 1 || res.failed != 0 || res.metrics["throughput_per_s"] <= 0 || res.metrics["setup_s"] <= 0 {
				t.Errorf("%s: attempted=%d failed=%d metrics=%v", tc.name, res.attempted, res.failed, res.metrics)
			}
		}
	}
}

func TestDeriveSeedIsPerWorkloadAndNonZero(t *testing.T) {
	seen := map[int64]bool{}
	for _, w := range workloads {
		s := deriveSeed(defaultSeed, w.name)
		if s == 0 || seen[s] {
			t.Errorf("seed of %s = %d", w.name, s)
		}
		seen[s] = true
	}
}
