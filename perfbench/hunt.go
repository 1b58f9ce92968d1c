package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/game"
	"ncg/internal/graph"
)

// huntSamplers mix the paper's convergent regime (tree starts, short
// searches) with non-tree starts, where best-response cycles exist and
// many searches run to the state cap.
var huntSamplers = []string{"random-tree", "random-m2n"}

var huntVariants = []string{"sum-sg", "max-sg", "sum-asg", "max-asg", "sum-gbg", "max-gbg"}

// huntSize is the workload's shape for a run length.
type huntSize struct {
	n, instances, maxStates int
}

func sizeHunt(secs int) huntSize {
	// About 48 instances/s on two cores. The state cap is 2000: at 20000 a
	// 10 s run holds about 100 instances, and how many of those run to
	// the cap varies enough between seeds to move a run's work by 15%;
	// several hundred instances under the lower cap average that out. 9
	// instances per cell (108 in all) is the least that gives a reportable
	// p90.
	return huntSize{n: 10, instances: max(9, 4*secs), maxStates: 2000}
}

func runHunt(cfg config) (*result, error) {
	return hunt(cfg, sizeHunt(cfg.seconds))
}

// newCampaign builds a campaign over named built-in samplers and variants.
func newCampaign(name string, samplers, variants []string, n, instances, maxStates int, seed int64) (campaign.Campaign, error) {
	c := campaign.Campaign{Name: name, N: n, Instances: instances, MaxStates: maxStates, Seed: seed}
	for _, s := range samplers {
		smp, ok := campaign.SamplerByName(s)
		if !ok {
			return c, fmt.Errorf("no built-in sampler %q", s)
		}
		c.Samplers = append(c.Samplers, smp)
	}
	for _, v := range variants {
		vr, ok := campaign.VariantByName(v)
		if !ok {
			return c, fmt.Errorf("no built-in variant %q", v)
		}
		c.Variants = append(c.Variants, vr)
	}
	return campaign.Resolve(c, campaign.Options{})
}

func hunt(cfg config, size huntSize) (*result, error) {
	seed := deriveSeed(cfg.seed, "hunt")
	res := newResult()
	var c campaign.Campaign
	var refs []campaign.ShardRef

	// Set-up: resolve and plan the campaign, and warm the campaign spine
	// with one state-capped instance per cell. The warm-up's inputs do not
	// depend on the workload seed, so its cost is the same on every run.
	setup, err := repeatSetup(func() error {
		var err error
		c, err = newCampaign("perfbench-hunt", huntSamplers, huntVariants, size.n, size.instances, size.maxStates, seed)
		if err != nil {
			return err
		}
		if refs, err = campaign.Plan(c, 1); err != nil {
			return err
		}
		discard := campaign.FuncSink(func(campaign.Record) error { return nil })
		_, err = campaign.Run(c, campaign.Options{Instances: 1, MaxStates: 500, Seed: warmupSeed, Workers: workers}, discard)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup.Seconds()

	// Measured pass: the whole grid through campaign.Run into a JSONL file,
	// as `ncghunt run -jsonl f` would.
	path := filepath.Join(cfg.dir, "hunt.jsonl")
	wall, _, err := runCampaign(c, path, nil)
	if err != nil {
		return nil, err
	}
	res.attempted = len(refs)
	res.metrics["throughput_per_s"] = float64(len(refs)) / wall.Seconds()
	res.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(cfg.log, "  measured: %d instances in %.3f s on %d workers\n", len(refs), wall.Seconds(), workers)

	stream, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hits, states, err := checkHuntStream(c, refs, stream)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "  searched %d states: %.1f states/s\n", states, float64(states)/wall.Seconds())
	fmt.Fprintf(cfg.log, "  check: %d records in plan order; %d hits are closed best-response cycles\n", len(refs), hits)
	if !cfg.trace {
		// Re-run the first instance of every cell on its own.
		lines, err := readLines(path)
		if err != nil {
			return nil, err
		}
		checked := 0
		for i, ref := range refs {
			if ref.Lo != 0 {
				continue
			}
			recs, err := campaign.RunShard(context.Background(), c, ref, nil)
			if err != nil {
				return nil, err
			}
			b, err := campaign.MarshalRecords(recs)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(b, lines[i]) {
				return nil, fmt.Errorf("hunt: standalone re-run of %s differs from its record", ref)
			}
			checked++
		}
		fmt.Fprintf(cfg.log, "  check: %d standalone re-runs (first instance of each cell) equal their records\n", checked)
	}
	sum := sha256.Sum256(stream)
	if err := checkPinned(cfg, "hunt", hex.EncodeToString(sum[:])); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceHunt(cfg, res, c, refs, stream, wall); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runCampaign runs the campaign into a JSONL file and returns the wall
// time and bytes written. With tr non-nil the run is a span and its sink
// is wrapped.
func runCampaign(c campaign.Campaign, path string, tr *traceAt) (time.Duration, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	cw := &countingWriter{w: f}
	sink := campaign.NewJSONLSink(closingWriter{cw, f})
	// One-instance shards: the automatic size makes each grid cell one
	// shard here, and a run then lasted as long as whichever worker drew
	// the last expensive cell (8.8 s and 11.0 s for one seed).
	opt := campaign.Options{Workers: workers, ShardSize: 1}
	start := time.Now()
	if tr == nil {
		_, err = campaign.Run(c, opt, sink)
	} else {
		sp := tr.t.begin(tr.parent, "campaign", "campaign.run")
		_, err = campaign.Run(c, opt, &tracedSink[campaign.Record]{inner: sink, at: traceAt{tr.t, sp.id}, layer: "campaign", name: "campaign.sink_write"})
		sp.end()
	}
	return time.Since(start), cw.n, err
}

// checkHuntStream checks that the stream holds one record per planned
// instance in plan order, and that every hit decodes to a closed cycle
// whose every move is a best response of its mover. It returns the hits
// and the states searched.
func checkHuntStream(c campaign.Campaign, refs []campaign.ShardRef, stream []byte) (hits, states int, err error) {
	recs, err := campaign.UnmarshalRecords(stream)
	if err != nil {
		return 0, 0, err
	}
	if len(recs) != len(refs) {
		return 0, 0, fmt.Errorf("hunt: %d records for %d planned instances", len(recs), len(refs))
	}
	games := map[string]game.Game{}
	for _, v := range c.Variants {
		games[v.Name] = v.New(c.N)
	}
	for i, rec := range recs {
		ref := refs[i]
		if rec.Campaign != c.Name || rec.Sampler != ref.Sampler || rec.Variant != ref.Variant || rec.Instance != ref.Lo {
			return 0, 0, fmt.Errorf("hunt: record %d is %s/%s #%d, plan says %s", i, rec.Sampler, rec.Variant, rec.Instance, ref)
		}
		states += rec.States
		if !rec.Hit {
			continue
		}
		hits++
		fc, err := rec.DecodeCycle()
		if err != nil {
			return 0, 0, err
		}
		if err := checkBestResponseCycle(games[rec.Variant], fc.States, fc.Moves); err != nil {
			return 0, 0, fmt.Errorf("hunt: hit %s/%s #%d: %v", rec.Sampler, rec.Variant, rec.Instance, err)
		}
	}
	return hits, states, nil
}

// checkBestResponseCycle checks that each move is among the best moves of
// its mover in the state it is played from.
func checkBestResponseCycle(gm game.Game, states []*graph.Graph, moves []game.Move) error {
	if len(moves) == 0 {
		return fmt.Errorf("empty cycle")
	}
	s := game.NewScratch(states[0].N())
	var best []game.Move
	for i, mv := range moves {
		best, _ = gm.BestMoves(states[i], mv.Agent, s, best[:0])
		found := false
		for _, b := range best {
			if b.Equal(mv) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("move %d (%v) is not a best response", i, mv)
		}
	}
	return nil
}

// traceHunt is the traced run: campaign.Run again with spans around the
// run and each sink write, then the RunShard pass — every one-instance
// shard of campaign.Plan(c, 1) on its own under a span — whose
// concatenated MarshalRecords output must equal the untraced stream.
func traceHunt(cfg config, res *result, c campaign.Campaign, refs []campaign.ShardRef, stream []byte, untraced time.Duration) error {
	t := newTracer()
	root := t.begin(0, "bench", "bench.hunt")
	traced, sinkBytes, err := runCampaign(c, filepath.Join(cfg.dir, "traced-hunt.jsonl"), &traceAt{t: t, parent: root.id})
	root.end()
	if err != nil {
		return err
	}
	if b, err := os.ReadFile(filepath.Join(cfg.dir, "traced-hunt.jsonl")); err != nil || !bytes.Equal(b, stream) {
		return fmt.Errorf("hunt: traced pass output differs from the untraced pass (%v)", err)
	}

	rroot := t.begin(0, "bench", "bench.hunt_shards")
	out := make([][]byte, len(refs))
	durs := make([]time.Duration, len(refs))
	err = parallel(len(refs), func(_, i int) error {
		sp := t.begin(rroot.id, "cycles", "cycles.instance")
		recs, err := campaign.RunShard(context.Background(), c, refs[i], nil)
		durs[i] = sp.end()
		if err != nil {
			return err
		}
		out[i], err = campaign.MarshalRecords(recs)
		return err
	})
	rroot.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.Join(out, nil), stream) {
		return fmt.Errorf("hunt: concatenated RunShard output differs from the campaign.Run stream")
	}
	fmt.Fprintf(cfg.log, "  check: concatenated output of %d one-instance RunShard calls equals the stream\n", len(refs))

	// The shards' output equals the stream, so the stream's counts are
	// theirs.
	hits, states, err := checkHuntStream(c, refs, stream)
	if err != nil {
		return err
	}
	var ms []float64
	var busy float64
	for _, d := range durs {
		ms = append(ms, millis(d))
		busy += d.Seconds()
	}
	spans := t.snapshot()
	dur, _ := spanTotals(spans)
	m := res.metrics
	m["cycles.instance_ms_p50"] = median(ms)
	m["cycles.instance_ms_p90"] = tailOrZero(ms, 0.90)
	m["state.states"] = float64(states)
	m["state.states_per_s"] = float64(states) / busy
	m["campaign.hits"] = float64(hits)
	m["campaign.parallel_speedup"] = busy / untraced.Seconds()
	m["campaign.sink_write_s"] = dur["campaign.sink_write"].Seconds()
	m["campaign.sink_bytes"] = float64(sinkBytes)
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	addSelfTimes(res, spans)
	fmt.Fprintln(cfg.log, "  "+timingLine("cycles.instance_ms", "ms", ms, 0.90))
	fmt.Fprintf(cfg.log, "  traced Run %.3f s vs untraced %.3f s; RunShard pass %.3f s of instance time\n",
		traced.Seconds(), untraced.Seconds(), busy)
	return t.write(filepath.Join(cfg.dir, "trace.jsonl"))
}
