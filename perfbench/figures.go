package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ncg/internal/dynamics"
	"ncg/internal/ensemble"
	"ncg/internal/game"
	"ncg/internal/gen"
)

// figureSeries are the registry scenarios behind Figs 7-14: swap and
// greedy-buy games under both policies, SUM and MAX costs, and four
// initial-network ensembles.
var figureSeries = []string{
	"fig7-asg-sum-k2", "fig7-asg-sum-k2-random", "fig8-asg-max-k2",
	"fig11-gbg-sum-a4", "fig12-gbg-sum-rl-a2", "fig13-gbg-max-a4", "fig14-gbg-max-dl-a2",
}

// figureShard is the trials a worker claims at once. The automatic size
// (an eighth of the trials per n) leaves one worker idle behind the last
// large-n shard of every series, which made run time depend on the race
// for that shard rather than on the work; results never depend on it.
const figureShard = 4

// figuresSize is the workload's shape for a run length.
type figuresSize struct {
	ns     []int
	trials int // per n and series
	// checkEvery re-runs every checkEvery-th record in an untraced run.
	checkEvery int
}

func sizeFigures(secs int) figuresSize {
	// About 560 trials/s on two cores; 29 trials per n and series is the
	// least that gives 1000 trials, enough for a reportable p99.
	return figuresSize{ns: []int{10, 20, 30, 40, 50}, trials: max(29, 16*secs), checkEvery: 8}
}

func runFigures(cfg config) (*result, error) {
	return figures(cfg, sizeFigures(cfg.seconds))
}

func figures(cfg config, size figuresSize) (*result, error) {
	base := deriveSeed(cfg.seed, "figures")
	scs := make([]ensemble.Scenario, len(figureSeries))
	res := newResult()

	// Set-up: resolve the scenarios and warm the ensemble spine with one
	// trial per n of every series, on inputs that do not depend on the
	// workload seed.
	setup, err := repeatSetup(func() error {
		for i, name := range figureSeries {
			sc, ok := ensemble.Lookup(name)
			if !ok {
				return fmt.Errorf("figures: scenario %q is not registered", name)
			}
			scs[i] = sc
			discard := ensemble.FuncSink(func(ensemble.Record) error { return nil })
			if _, err := ensemble.Execute(sc, ensemble.Options{Ns: size.ns, Trials: 1, Seed: warmupSeed, Workers: workers}, discard); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup.Seconds()

	// Measured pass: the seven series back to back, each streamed to its
	// own JSONL file, as `ncgsim run <series> -jsonl f` would.
	wall, _, err := executeSeries(cfg, scs, size, base, "", nil)
	if err != nil {
		return nil, err
	}
	total := len(scs) * len(size.ns) * size.trials
	res.attempted = total
	res.metrics["throughput_per_s"] = float64(total) / wall.Seconds()
	res.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(cfg.log, "  measured: %d trials in %.3f s on %d workers\n", total, wall.Seconds(), workers)

	// Checks: every file holds the grid in (n, trial) order; re-runs of
	// the records equal them; the digest is pinned for the default seed.
	recs, digest, err := readSeries(cfg, scs, size, "")
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		var sample []figureRec
		for i := 0; i < len(recs); i += size.checkEvery {
			sample = append(sample, recs[i])
		}
		if _, err := replayTrials(sample, nil, 0); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "  check: %d sampled standalone re-runs equal their records\n", len(sample))
	}
	if err := checkPinned(cfg, "figures", digest); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceFigures(cfg, res, scs, size, base, wall, recs, digest); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceFigures is the traced run: Execute again with spans around each
// series and each sink write, then re-run every record on its own through
// Runner.Run under a span.
func traceFigures(cfg config, res *result, scs []ensemble.Scenario, size figuresSize, base int64, untraced time.Duration, recs []figureRec, digest string) error {
	t := newTracer()
	root := t.begin(0, "bench", "bench.figures")
	traced, sinkBytes, err := executeSeries(cfg, scs, size, base, "traced-", &traceAt{t: t, parent: root.id})
	root.end()
	if err != nil {
		return err
	}
	if _, d2, err := readSeries(cfg, scs, size, "traced-"); err != nil || d2 != digest {
		return fmt.Errorf("figures: traced pass output differs from the untraced pass (%v)", err)
	}
	dur, count := spanTotals(t.snapshot())

	rroot := t.begin(0, "bench", "bench.figures_rerun")
	trials, err := replayTrials(recs, t, rroot.id)
	rroot.end()
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "  check: all %d standalone re-runs equal their records\n", len(recs))
	var trialMs []float64
	var sumTrial float64
	var delta, naive struct {
		d     time.Duration
		steps int
	}
	steps := 0
	for _, tr := range trials {
		trialMs = append(trialMs, millis(tr.dur))
		sumTrial += tr.dur.Seconds()
		steps += tr.steps
		if tr.naive {
			naive.d += tr.dur
			naive.steps += tr.steps
		} else {
			delta.d += tr.dur
			delta.steps += tr.steps
		}
	}
	perStepUs := func(d time.Duration, steps int) float64 {
		if steps == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(steps)
	}
	m := res.metrics
	m["dynamics.trial_ms_p50"] = median(trialMs)
	m["dynamics.trial_ms_p99"] = tailOrZero(trialMs, 0.99)
	m["dynamics.step_us_delta"] = perStepUs(delta.d, delta.steps)
	m["dynamics.step_us_naive"] = perStepUs(naive.d, naive.steps)
	m["dynamics.steps"] = float64(steps)
	m["ensemble.records"] = float64(len(recs))
	m["ensemble.parallel_speedup"] = sumTrial / untraced.Seconds()
	m["ensemble.sink_write_s"] = dur["ensemble.sink_write"].Seconds()
	m["ensemble.sink_bytes"] = float64(sinkBytes)
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	addSelfTimes(res, t.snapshot())
	fmt.Fprintln(cfg.log, "  "+timingLine("dynamics.trial_ms", "ms", trialMs, 0.99))
	fmt.Fprintf(cfg.log, "  traced Execute %.3f s vs untraced %.3f s; %d sink calls; re-runs %.3f s of trial time: delta-scan trials %.3f s (%.1f%%), naive-scan trials %.3f s\n",
		traced.Seconds(), untraced.Seconds(), count["ensemble.sink_write"], sumTrial,
		delta.d.Seconds(), 100*delta.d.Seconds()/sumTrial, naive.d.Seconds())
	return t.write(filepath.Join(cfg.dir, "trace.jsonl"))
}

// executeSeries runs every series through ensemble.Execute into
// <dir>/<prefix><series>.jsonl and returns the wall time of the whole
// pass and the bytes written. With tr non-nil each series runs under a
// span and its sink is wrapped.
func executeSeries(cfg config, scs []ensemble.Scenario, size figuresSize, base int64, prefix string, tr *traceAt) (time.Duration, int64, error) {
	start := time.Now()
	var written int64
	for _, sc := range scs {
		f, err := os.Create(filepath.Join(cfg.dir, prefix+sc.Name+".jsonl"))
		if err != nil {
			return 0, 0, err
		}
		cw := &countingWriter{w: f}
		sink := ensemble.NewJSONLSink(closingWriter{cw, f})
		opt := ensemble.Options{Ns: size.ns, Trials: size.trials, Seed: base, Workers: workers, ShardSize: figureShard}
		if tr == nil {
			_, err = ensemble.Execute(sc, opt, sink)
		} else {
			sp := tr.t.begin(tr.parent, "ensemble", "ensemble.execute")
			_, err = ensemble.Execute(sc, opt, &tracedSink[ensemble.Record]{inner: sink, at: traceAt{tr.t, sp.id}, layer: "ensemble", name: "ensemble.sink_write"})
			sp.end()
		}
		if err != nil {
			return 0, 0, fmt.Errorf("figures: %s: %w", sc.Name, err)
		}
		written += cw.n
	}
	return time.Since(start), written, nil
}

// figureRec is one record with the scenario that produced it.
type figureRec struct {
	sc  *ensemble.Scenario
	rec ensemble.Record
}

// readSeries reads back the JSONL files of a pass, checks that each holds
// the whole grid in (n, trial) order, and returns the records and the
// SHA-256 digest of the files in series order.
func readSeries(cfg config, scs []ensemble.Scenario, size figuresSize, prefix string) ([]figureRec, string, error) {
	h := sha256.New()
	var out []figureRec
	for i := range scs {
		sc := &scs[i]
		lines, err := readLines(filepath.Join(cfg.dir, prefix+sc.Name+".jsonl"))
		if err != nil {
			return nil, "", err
		}
		if len(lines) != len(size.ns)*size.trials {
			return nil, "", fmt.Errorf("figures: %s wrote %d records, want %d", sc.Name, len(lines), len(size.ns)*size.trials)
		}
		for j, line := range lines {
			h.Write(line)
			var rec ensemble.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, "", fmt.Errorf("figures: %s record %d: %v", sc.Name, j, err)
			}
			n, trial := size.ns[j/size.trials], j%size.trials
			if rec.Scenario != sc.Name || rec.N != n || rec.Trial != trial {
				return nil, "", fmt.Errorf("figures: %s record %d is %s n=%d trial=%d, want n=%d trial=%d", sc.Name, j, rec.Scenario, rec.N, rec.Trial, n, trial)
			}
			if rec.Steps < 0 || (rec.Converged && rec.Cycled) {
				return nil, "", fmt.Errorf("figures: %s record %d is inconsistent: %+v", sc.Name, j, rec)
			}
			out = append(out, figureRec{sc: sc, rec: rec})
		}
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// trialRun is one standalone re-run.
type trialRun struct {
	dur   time.Duration
	steps int
	naive bool
}

// replayTrials re-runs each record's trial on its own through
// dynamics.Runner.Run on two goroutines and checks the result equals the
// record. The start network is the scenario's NewInitial seeded by the
// record's seed, and the process seed is the record's seed + 1, exactly
// as the ensemble spine documents. With t non-nil each re-run is a span
// under parent.
func replayTrials(recs []figureRec, t *tracer, parent int64) ([]trialRun, error) {
	out := make([]trialRun, len(recs))
	runners := make([]*dynamics.Runner, workers)
	for w := range runners {
		runners[w] = dynamics.NewRunner()
	}
	err := parallel(len(recs), func(w, i int) error {
		return replayTrial(runners[w], recs[i], &out[i], t, parent)
	})
	return out, err
}

func replayTrial(runner *dynamics.Runner, fr figureRec, out *trialRun, t *tracer, parent int64) error {
	sc, rec := fr.sc, fr.rec
	g := sc.Backend.Materialize(sc.NewInitial(rec.N, gen.NewRand(rec.Seed)), sc.Oracle)
	gm := sc.NewGame(rec.N)
	out.naive = game.PreferNaiveScan(gm, g)
	cfg := dynamics.Config{
		Game: gm, Policy: sc.Policy.Policy(), Tie: sc.Tie, MaxSteps: sc.MaxSteps,
		Seed: rec.Seed + 1, Schedule: sc.Schedule, DetectCycles: sc.DetectCycles,
		Oracle: sc.Oracle, Backend: sc.Backend,
	}
	var r dynamics.Result
	if t != nil {
		sp := t.begin(parent, "dynamics", "dynamics.run")
		r = runner.Run(g, cfg)
		out.dur = sp.end()
	} else {
		start := time.Now()
		r = runner.Run(g, cfg)
		out.dur = time.Since(start)
	}
	out.steps = r.Steps
	if r.Steps != rec.Steps || r.Converged != rec.Converged || r.Cycled != rec.Cycled || r.MoveKinds != rec.Moves {
		return fmt.Errorf("figures: re-run of %s n=%d trial=%d gives steps=%d converged=%v cycled=%v moves=%v, record says %+v",
			sc.Name, rec.N, rec.Trial, r.Steps, r.Converged, r.Cycled, r.MoveKinds, rec)
	}
	return nil
}
