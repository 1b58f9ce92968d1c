// Command perfbench is the repository's end-to-end benchmark. It drives one
// of four workloads through the program's public packages, checks every
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics, layer self times and tracing overhead (traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// A failed output check prints the reason on standard error, no result
// line, and exits 1.
//
// Run it through run.sh from the repository root, which builds it from
// source inside the checkout:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload, each in its own process, and prints
// one table. See README.md for why each workload exists.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ncg/internal/rng"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median. Some set-ups take about a millisecond, so one measurement
	// would be mostly timer and scheduler noise.
	setupReps = 15
	// workers is the parallelism of every workload: two cores, the
	// machine size the workloads are sized for.
	workers = 2
	// warmupSeed seeds the set-up warm-ups, whose inputs are the same on
	// every run so that set-up time does not vary with the workload seed.
	warmupSeed = 0x5eed
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
// throughput_per_s counts each workload's unit of work: trials (figures),
// instances (hunt, service) or best-response steps (landmark).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every traced run prints all
// of them; a layer the workload does not drive reads 0.
var perLayer = []metricDef{
	{"graph.landmark_build_s", "s"},
	{"graph.landmark_repair_s", "s"},
	{"graph.landmark_repairs", "count"},
	{"graph.bfs_edges_per_s", "1/s"},
	{"game.cost_read_s", "s"},
	{"game.cost_reads", "count"},
	{"game.scan_s", "s"},
	{"game.scans", "count"},
	{"game.probe_s", "s"},
	{"game.probes", "count"},
	{"game.apply_s", "s"},
	{"dynamics.steps", "count"},
	{"dynamics.step_s_p50", "s"},
	{"dynamics.step_s_max", "s"},
	{"dynamics.pick_s", "s"},
	{"dynamics.trial_ms_p50", "ms"},
	{"dynamics.trial_ms_p99", "ms"},
	{"dynamics.step_us_delta", "us"},
	{"dynamics.step_us_naive", "us"},
	{"ensemble.records", "count"},
	{"ensemble.parallel_speedup", "ratio"},
	{"ensemble.sink_write_s", "s"},
	{"ensemble.sink_bytes", "bytes"},
	{"cycles.instance_ms_p50", "ms"},
	{"cycles.instance_ms_p90", "ms"},
	{"state.states", "count"},
	{"state.states_per_s", "1/s"},
	{"campaign.hits", "count"},
	{"campaign.parallel_speedup", "ratio"},
	{"campaign.sink_write_s", "s"},
	{"campaign.sink_bytes", "bytes"},
	{"campaign.shard_ms_p50", "ms"},
	{"campaign.shard_ms_p95", "ms"},
	{"coord.lease_ms_p50", "ms"},
	{"coord.lease_ms_p95", "ms"},
	{"coord.leases", "count"},
	{"coord.complete_ms_p50", "ms"},
	{"coord.complete_ms_p95", "ms"},
	{"coord.completes", "count"},
	{"coord.handler_s.lease", "s"},
	{"coord.handler_s.heartbeat", "s"},
	{"coord.handler_s.complete", "s"},
	{"coord.handler_s.release", "s"},
	{"coord.handler_s.status", "s"},
	{"coord.handler_s.records", "s"},
	{"coord.handler_s.stream", "s"},
	{"coord.idle_polls", "count"},
	{"coord.disk_bytes", "bytes"},
	{"coord.stream_polls", "count"},
	{"coord.stream_bytes", "bytes"},
	{"coord.stream_lag_ms_p50", "ms"},
	{"coord.stream_lag_ms_p99", "ms"},
	{"coord.failed_calls", "count"},
	{"coord.retries", "count"},
	{"self_s.bench", "s"},
	{"self_s.graph", "s"},
	{"self_s.game", "s"},
	{"self_s.dynamics", "s"},
	{"self_s.ensemble", "s"},
	{"self_s.cycles", "s"},
	{"self_s.campaign", "s"},
	{"self_s.coord", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// layers are the span layers whose self time is reported; "bench" is the
// benchmark's own code between calls into the program.
var layers = []string{"bench", "graph", "game", "dynamics", "ensemble", "cycles", "campaign", "coord"}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// dir is the run's private scratch directory inside the checkout.
	dir string
	// log receives the human-readable report.
	log io.Writer
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"figures", runFigures},
	{"hunt", runHunt},
	{"service", runService},
	{"landmark", runLandmark},
}

// pinnedDigests are the SHA-256 digests of each workload's output at the
// default seed and run length; any change to them is a change of the
// program's results, not of its speed.
var pinnedDigests = map[string]string{
	"figures":  "4178b36bf5fdada9e933bd287979aaf53daf22ffeeb6e56ff75f2c2ddf15aec9",
	"hunt":     "8810b8ee0fd4a6650369603dfbedd821df069a49f5f4e81b5a31af850cd3e949",
	"service":  "16f04ee0d01479cbf5a97337de0a8eee229bcab175089c4ac028c02a6d0a72da",
	"landmark": "4fe5a6ccef7f71e407e111dec8aab9f12187ac11c973328ad392001a22a0ac16",
}

// checkPinned compares a digest against its pinned value when the run uses
// the default seed and length.
func checkPinned(cfg config, workload, digest string) error {
	want, ok := pinnedDigests[workload]
	if !ok || cfg.seed != defaultSeed || cfg.seconds != defaultSeconds {
		fmt.Fprintf(cfg.log, "  digest %s (not pinned for this seed and length)\n", digest)
		return nil
	}
	if digest != want {
		return fmt.Errorf("%s: output digest %s differs from the pinned %s", workload, digest, want)
	}
	fmt.Fprintf(cfg.log, "  digest %s matches the pinned value\n", digest)
	return nil
}

// deriveSeed gives each workload its own non-zero input seed (zero means
// "default" to the program's option structs).
func deriveSeed(seed int64, workload string) int64 {
	h := fnv.New64a()
	io.WriteString(h, workload)
	if s := rng.Seed(seed, h.Sum64()); s != 0 {
		return s
	}
	return 1
}

// repeatSetup runs one set-up step setupReps times and returns the median
// duration; the measured phase uses the last repetition's product.
func repeatSetup(step func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// warmCPU keeps every core busy for d before anything is timed. On the
// virtual machines this benchmark runs on, a core that was idle runs at
// about half speed for the first second or so of work, which would
// otherwise land in set-up and the start of the measured phase.
func warmCPU(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(w) + 1
			for time.Now().Before(deadline) {
				for i := 0; i < 1<<16; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

// spinSink keeps the warm-up loop from being optimized away.
var spinSink atomic.Uint64

// peakRSSMB is the process's resident-memory high-water mark so far
// (getrusage's ru_maxrss: kilobytes on Linux, bytes on macOS). Mapped heap
// (MemStats.HeapSys) would be coarser: it grows in 4 MB steps, and whether
// a run takes the next step depends on when its collections happen to run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024
	}
	return kib * 1024 / 1e6
}

// addSelfTimes reports the per-layer self times and span count of a
// traced pass.
func addSelfTimes(res *result, spans []span) {
	self := selfTimes(spans)
	for _, l := range layers {
		res.metrics["self_s."+l] = self[l].Seconds()
	}
	res.metrics["trace.spans"] = float64(len(spans))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "figures, hunt, service, landmark, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", defaultSeconds, "run length; the work is sized to take about this long on two cores")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	dir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for record files, coordinator state and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, log: stderr}
	if *name == "all" {
		return runAll(cfg, *dir, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want figures, hunt, service, landmark or all)\n", *name)
		return 2
	}
	cfg.dir = filepath.Join(*dir, w.name)
	if err := os.RemoveAll(cfg.dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
	warmCPU(2 * time.Second)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: FAILED: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := resultLine(res, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	printTable(stderr, res, defs)
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON object. Every metric of defs is
// present (0 when the workload did not set it); a metric the workload set
// outside defs is a bug in the benchmark.
func resultLine(res *result, defs []metricDef) (string, error) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range res.metrics {
		if !known[name] {
			return "", fmt.Errorf("metric %q is not declared", name)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{Value: res.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	return string(b), err
}

// printTable prints the metrics of defs by name with their units.
func printTable(w io.Writer, res *result, defs []metricDef) {
	fmt.Fprintf(w, "  %-28s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %16.6g  %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.attempted, res.failed)
}

// runAll runs every workload in its own process, so each peak-heap figure
// is that workload's alone, and prints one table of all their metrics.
func runAll(cfg config, dir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	type row struct {
		workload, metric, unit string
		value                  float64
	}
	var rows []row
	failed := false
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace, "--workdir", dir)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench all: %s failed: %v\n", w.name, err)
			failed = true
			continue
		}
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench all: %s: no valid result line\n", w.name)
			failed = true
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.Metrics[name]
			rows = append(rows, row{w.name, name, m.Unit, m.Value})
		}
	}
	fmt.Fprintf(stdout, "%-10s %-28s %16s  %s\n", "workload", "metric", "value", "unit")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-10s %-28s %16.6g  %s\n", r.workload, r.metric, r.value, r.unit)
	}
	if failed {
		fmt.Fprintln(stdout, "some workloads FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "all workloads passed their output checks")
	return 0
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// traceAt is where a traced pass records its spans: the tracer and the
// parent span.
type traceAt struct {
	t      *tracer
	parent int64
}

// tracedSink wraps the JSONL sink handed to ensemble.Execute or
// campaign.Run and times its Write and Flush calls under one span name.
// Flush is forwarded because both spines flush after every emitted shard.
type tracedSink[R any] struct {
	inner interface {
		Write(R) error
		Flush() error
		Close() error
	}
	at          traceAt
	layer, name string
}

func (s *tracedSink[R]) Write(rec R) error {
	sp := s.at.t.begin(s.at.parent, s.layer, s.name)
	err := s.inner.Write(rec)
	sp.end()
	return err
}

func (s *tracedSink[R]) Flush() error {
	sp := s.at.t.begin(s.at.parent, s.layer, s.name)
	err := s.inner.Flush()
	sp.end()
	return err
}

func (s *tracedSink[R]) Close() error { return s.inner.Close() }

// parallel calls fn(w, i) for every i in [0, n) on `workers` goroutines,
// w in [0, workers) naming the goroutine so callers can keep per-worker
// state, and returns the first error. A goroutine stops at its first
// error.
func parallel(n int, fn func(w, i int) error) error {
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = fn(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closingWriter writes through one writer and closes another, so a sink
// that closes its writer closes the file underneath a counting wrapper.
type closingWriter struct {
	io.Writer
	c io.Closer
}

func (w closingWriter) Close() error { return w.c.Close() }

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// readLines reads a JSONL file into its lines, newline included.
func readLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !bytes.Equal(bytes.Join(lines, nil), data) {
		return nil, errors.New(path + ": not a sequence of complete lines")
	}
	return lines, nil
}
