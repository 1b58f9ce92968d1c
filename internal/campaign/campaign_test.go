package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// testCampaign is a small sampled hunt spanning a 2x2 grid, sized so a
// full run takes well under a second.
func testCampaign() Campaign {
	return Campaign{
		Name:      "test-hunt",
		Samplers:  []Sampler{CyclePendantSampler(), TreeSampler()},
		Variants:  []Variant{{Name: "sum-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }}, {Name: "max-sg", New: func(int) game.Game { return game.NewSwap(game.Max) }}},
		N:         8,
		Instances: 6,
		Seed:      3,
		MaxStates: 60,
	}
}

func runJSONL(t *testing.T, c Campaign, opt Options, sinks ...Sink) (string, Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := Run(c, opt, append([]Sink{NewJSONLSink(&buf)}, sinks...)...)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), sum
}

// TestRunBitIdenticalAcrossWorkersAndShards is the spine's core guarantee:
// the streamed records and the summary are byte-for-byte the same for any
// worker count and any shard size.
func TestRunBitIdenticalAcrossWorkersAndShards(t *testing.T) {
	c := testCampaign()
	ref, refSum := runJSONL(t, c, Options{Workers: 1, ShardSize: 1})
	if refSum.Instances != 24 || refSum.Searched == 0 {
		t.Fatalf("unexpected reference summary: %+v", refSum)
	}
	for _, opt := range []Options{
		{Workers: 4, ShardSize: 1},
		{Workers: 3, ShardSize: 2},
		{Workers: 8, ShardSize: 5},
		{Workers: 2},
	} {
		got, sum := runJSONL(t, c, opt)
		if got != ref {
			t.Fatalf("records differ at workers=%d shard=%d", opt.Workers, opt.ShardSize)
		}
		if !reflect.DeepEqual(sum, refSum) {
			t.Fatalf("summary differs at workers=%d shard=%d: %+v vs %+v", opt.Workers, opt.ShardSize, sum, refSum)
		}
	}
}

// TestRunMatchesSequentialReference pins the spine to a plain sequential
// loop with the documented seed discipline: every (sampler, variant,
// instance) triple derives its stream as gen.Seed(base, si, vi, inst),
// redrawing degenerate samples from gen.Seed(base, si, vi, inst, attempt).
func TestRunMatchesSequentialReference(t *testing.T) {
	c := testCampaign()
	var recs []Record
	if _, err := Run(c, Options{Workers: 4}, FuncSink(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	i := 0
	for si, smp := range c.Samplers {
		for vi, v := range c.Variants {
			for inst := 0; inst < c.Instances; inst++ {
				var g *graph.Graph
				resamples := 0
				for a := 0; a <= defaultMaxResamples; a++ {
					g = smp.Sample(c.N, inst, gen.NewRand(instanceSeed(c.Seed, si, vi, inst, a)))
					if g != nil {
						break
					}
					resamples++
				}
				rec := recs[i]
				i++
				if rec.Sampler != smp.Name || rec.Variant != v.Name || rec.Instance != inst {
					t.Fatalf("record %d out of grid order: %+v", i-1, rec)
				}
				if rec.Seed != instanceSeed(c.Seed, si, vi, inst, 0) {
					t.Fatalf("record %d seed %d, want %d", i-1, rec.Seed, instanceSeed(c.Seed, si, vi, inst, 0))
				}
				if g == nil {
					if rec.Searched {
						t.Fatalf("record %d searched a sample the reference could not draw", i-1)
					}
					continue
				}
				if !rec.Searched || rec.Resamples != resamples || rec.N != g.N() {
					t.Fatalf("record %d = %+v, want resamples=%d n=%d", i-1, rec, resamples, g.N())
				}
			}
		}
	}
	if i != len(recs) {
		t.Fatalf("got %d records, reference enumerated %d", len(recs), i)
	}
}

// TestResumeFromTruncatedJSONL kills a run at an arbitrary byte offset and
// completes it from the checkpoint: the final file must be bit-identical
// to an uninterrupted run's.
func TestResumeFromTruncatedJSONL(t *testing.T) {
	c := testCampaign()
	full, fullSum := runJSONL(t, c, Options{Workers: 2})
	for _, cut := range []int{0, len(full) / 3, len(full) / 2, len(full) - 2} {
		path := filepath.Join(t.TempDir(), "hunt.jsonl")
		if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, sink, err := ResumeJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		// Every other sink must see the complete stream, recovered
		// records included, in grid order.
		streamed := 0
		sum, err := Run(c, Options{Workers: 4, Done: cp}, sink,
			FuncSink(func(rec Record) error {
				if want := streamed % c.Instances; rec.Instance != want {
					t.Fatalf("cut %d: record %d has instance %d, want %d", cut, streamed, rec.Instance, want)
				}
				streamed++
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		if streamed != fullSum.Instances {
			t.Fatalf("cut %d: companion sink saw %d records, want the full %d", cut, streamed, fullSum.Instances)
		}
		if !reflect.DeepEqual(sum, fullSum) {
			t.Fatalf("cut %d: resumed summary %+v, want %+v", cut, sum, fullSum)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != full {
			t.Fatalf("cut %d: resumed file differs from the uninterrupted run", cut)
		}
	}
}

// TestResumeRejectsForeignCheckpoint: resuming with records from another
// campaign, seed or grid must fail instead of silently mixing runs, and so
// must a larger budget that puts new instances of the first cells in
// front of recovered records of later cells.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	c := testCampaign()
	full, _ := runJSONL(t, c, Options{})
	path := filepath.Join(t.TempDir(), "hunt.jsonl")
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	other := c
	other.Seed = 99
	if _, err := Run(other, Options{Done: cp}); err == nil {
		t.Fatal("expected rejection for a foreign seed")
	}
	smaller := c
	smaller.Instances = 3
	if _, err := Run(smaller, Options{Done: cp}); err == nil {
		t.Fatal("expected rejection for a smaller grid")
	}
	larger := c
	larger.Instances = 8
	if _, err := Run(larger, Options{Done: cp}); err == nil {
		t.Fatal("expected rejection for a larger budget that reorders the checkpoint")
	}
}

// TestResumeExtendsPrefixCheckpoint: a larger instance budget extends a
// checkpoint that stays a prefix of the larger run — a one-cell campaign,
// or a grid where only the last cell's budget grows (the directed line is
// a one-instance family) — into the uninterrupted larger run's file.
func TestResumeExtendsPrefixCheckpoint(t *testing.T) {
	oneCell := testCampaign()
	oneCell.Samplers = oneCell.Samplers[:1]
	oneCell.Variants = oneCell.Variants[:1]
	lastCell := testCampaign()
	lastCell.Samplers = []Sampler{DirectedLineSampler(), TreeSampler()}
	lastCell.Variants = lastCell.Variants[:1]
	for _, c := range []Campaign{oneCell, lastCell} {
		c.Instances = 4
		small, _ := runJSONL(t, c, Options{})
		want, wantSum := runJSONL(t, c, Options{Instances: 6})
		path := filepath.Join(t.TempDir(), "hunt.jsonl")
		if err := os.WriteFile(path, []byte(small), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, sink, err := ResumeJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Run(c, Options{Instances: 6, Workers: 3, ShardSize: 2, Done: cp}, sink)
		if err != nil {
			t.Fatalf("%d cells: a prefix checkpoint must extend to the larger run: %v", len(wantSum.Cells), err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%d cells: extended file differs from the uninterrupted larger run", len(wantSum.Cells))
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Fatalf("%d cells: extended summary %+v, want %+v", len(wantSum.Cells), sum, wantSum)
		}
	}
}

// degenerateSampler returns nil for the first fails attempts of every
// instance, so tests can steer the resample machinery.
func degenerateSampler(fails int) Sampler {
	return Sampler{
		Name: "degenerate",
		Sample: func(n, i int, r *gen.Rand) *graph.Graph {
			if fails <= 0 {
				return graph.Path(n)
			}
			fails--
			return nil
		},
	}
}

// TestDegenerateSamplesDoNotConsumeBudget is the hunt bugfix's pin: a
// sampler with degenerate draws still searches the full instance budget
// (each instance redrawn from fresh derived seeds), and the redraws are
// reported per record.
func TestDegenerateSamplesDoNotConsumeBudget(t *testing.T) {
	c := Campaign{
		Name:      "degenerate-hunt",
		Samplers:  []Sampler{degenerateSampler(7)},
		Variants:  []Variant{{Name: "sum-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }}},
		N:         4,
		Instances: 5,
		Seed:      1,
		MaxStates: 50,
	}
	var recs []Record
	sum, err := Run(c, Options{Workers: 1}, FuncSink(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Searched != 5 || sum.Instances != 5 {
		t.Fatalf("degenerate draws shrank the search budget: %+v", sum)
	}
	if recs[0].Resamples != 7 {
		t.Fatalf("record 0 reports %d resamples, want 7", recs[0].Resamples)
	}
	for _, rec := range recs[1:] {
		if rec.Resamples != 0 || !rec.Searched {
			t.Fatalf("unexpected record %+v", rec)
		}
	}

	// A sampler that never produces a network exhausts its redraw budget
	// and reports the instance as unsearched rather than erroring.
	c.Samplers = []Sampler{{Name: "never", Sample: func(int, int, *gen.Rand) *graph.Graph { return nil }}}
	c.MaxResamples = 3
	recs = recs[:0]
	sum, err = Run(c, Options{Workers: 1}, FuncSink(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Searched != 0 || sum.Instances != 5 {
		t.Fatalf("summary %+v, want 0 searched of 5", sum)
	}
	for _, rec := range recs {
		if rec.Searched || rec.Resamples != 4 || rec.N != 0 {
			t.Fatalf("unexpected record %+v", rec)
		}
	}
}

// TestMaxHitsCutIsDeterministic: with a candidate check that accepts known
// instances, the record stream ends exactly at the MaxHits-th hit at any
// worker count.
func TestMaxHitsCutIsDeterministic(t *testing.T) {
	c := Campaign{
		Name:      "capped-hunt",
		Samplers:  []Sampler{{Name: "paths", Total: 400, Sample: func(n, i int, _ *gen.Rand) *graph.Graph { return graph.Path(3 + i%5) }}},
		Variants:  []Variant{{Name: "check", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }}},
		Instances: 400,
		Seed:      1,
		NewCheck: func() func(g *graph.Graph) bool {
			return func(g *graph.Graph) bool { return g.N() == 6 }
		},
		Moves: []game.Move{{Agent: 0, Drop: []int{1}, Add: []int{2}}},
	}
	ref, refSum := runJSONL(t, c, Options{Workers: 1, MaxHits: 3})
	// Hits are at instances 3, 8, 13 (n == 6): the stream must stop at 14
	// records, 3 of them hits.
	if refSum.Hits != 3 || refSum.Instances != 14 {
		t.Fatalf("reference summary %+v, want 3 hits over 14 records", refSum)
	}
	for _, workers := range []int{2, 4, 7} {
		got, sum := runJSONL(t, c, Options{Workers: workers, MaxHits: 3, ShardSize: 2})
		if got != ref || !reflect.DeepEqual(sum, refSum) {
			t.Fatalf("workers=%d: capped stream differs", workers)
		}
	}
}

// TestHitRecordRoundTrip: a hit's canonical encodings decode back to the
// start network and a closing cycle trace.
func TestHitRecordRoundTrip(t *testing.T) {
	// The Figure 2 MAX-SG network is a known cycling instance; hunt it via
	// a single-instance campaign over a fixed sampler.
	start := cycles.Fig2Start()
	c := Campaign{
		Name:      "roundtrip",
		Samplers:  []Sampler{{Name: "fig2", Total: 1, Sample: func(int, int, *gen.Rand) *graph.Graph { return start.Clone() }}},
		Variants:  []Variant{{Name: "max-sg", New: func(int) game.Game { return game.NewSwap(game.Max) }}},
		Instances: 1,
		Seed:      1,
		MaxStates: 4000,
	}
	var hit *Record
	sum, err := Run(c, Options{Workers: 1}, FuncSink(func(rec Record) error {
		if rec.Hit {
			r := rec
			hit = &r
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil {
		t.Fatalf("expected the MAX-SG 6-cycle to admit a best-response cycle (summary %+v)", sum)
	}
	decoded, err := hit.DecodeStart()
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Equal(start) {
		t.Fatal("decoded start differs from the sampled network")
	}
	fc, err := hit.DecodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.States) != len(fc.Moves) || len(fc.Moves) == 0 {
		t.Fatalf("decoded cycle has %d states, %d moves", len(fc.States), len(fc.Moves))
	}
	if hit.States <= 0 {
		t.Fatalf("hit searched %d states", hit.States)
	}
}

// TestRoundVariantHunt hunts a simultaneous-round variant: SUM-SG, whose
// sequential dynamics converge by potential, oscillates under rounds, so a
// modest random ensemble must produce hits — each carrying a replayable,
// closing round-cycle trace — and the record stream must stay bit-identical
// across worker counts like every other campaign.
func TestRoundVariantHunt(t *testing.T) {
	v, ok := VariantByName("rounds-sum-sg")
	if !ok || v.Schedule == nil {
		t.Fatal("rounds-sum-sg not registered as a round variant")
	}
	c := Campaign{
		Name:      "round-hunt",
		Samplers:  []Sampler{ConnectedSampler(2)},
		Variants:  []Variant{v},
		N:         14,
		Instances: 16,
		Seed:      5,
		MaxStates: 4000,
	}
	ref, refSum := runJSONL(t, c, Options{Workers: 1, ShardSize: 1})
	if got, sum := runJSONL(t, c, Options{Workers: 4, ShardSize: 2}); got != ref || !reflect.DeepEqual(sum, refSum) {
		t.Fatal("round-variant records differ across worker counts")
	}
	hits := 0
	if _, err := Run(c, Options{Workers: 2}, FuncSink(func(rec Record) error {
		if !rec.Hit {
			return nil
		}
		hits++
		fc, err := rec.DecodeCycle()
		if err != nil {
			return err
		}
		if len(fc.Moves) == 0 || len(fc.Moves) != len(fc.States) {
			t.Fatalf("round hit has %d moves over %d states", len(fc.Moves), len(fc.States))
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatalf("no round cycles found over %d instances (summary %+v); pick new seeds", c.Instances, refSum)
	}
}

// TestEncodeDecodeGraph round-trips networks through the hex encoding.
func TestEncodeDecodeGraph(t *testing.T) {
	r := gen.NewRand(7)
	for _, g := range []*graph.Graph{
		graph.New(1), graph.Path(9), graph.Cycle(13),
		gen.BudgetNetwork(11, 3, r), gen.RandomTree(65, r),
	} {
		dec, err := DecodeGraph(g.N(), EncodeGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(g) {
			t.Fatalf("round trip changed a %d-vertex network", g.N())
		}
	}
	if _, err := DecodeGraph(5, "zz"); err == nil {
		t.Fatal("expected an error for a bad encoding")
	}
	if _, err := DecodeGraph(5, EncodeGraph(graph.Path(6))); err == nil {
		t.Fatal("expected an error for a size mismatch")
	}
}

// TestRunValidation: structural and parameter errors surface before any
// instance runs.
func TestRunValidation(t *testing.T) {
	c := testCampaign()
	c.Samplers = append(c.Samplers, BudgetSampler(4)) // needs n > 8
	if _, err := Run(c, Options{}); err == nil {
		t.Fatal("expected an infeasible budget sampler to be rejected")
	}
	c = testCampaign()
	c.MaxStates = 0
	if _, err := Run(c, Options{}); err == nil {
		t.Fatal("expected a missing state cap to be rejected")
	}
	c = testCampaign()
	c.Variants = nil
	if _, err := Run(c, Options{}); err == nil {
		t.Fatal("expected a variant-less campaign to be rejected")
	}
}
