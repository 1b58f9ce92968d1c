package campaign

import (
	"context"

	"ncg/internal/cycles"
	"ncg/internal/dynamics"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/search"
	"ncg/internal/spine"
)

// Options override a campaign's defaults and shape the execution.
type Options struct {
	// Context, if non-nil, cancels the run between instances: in-flight
	// shards stop at their next instance boundary, everything already
	// emitted is flushed, and Run returns the context's error — the file
	// left behind is a maximal resumable checkpoint, exactly as if the
	// campaign had been cut by MaxHits. The graceful-shutdown seam of the
	// cmds routes SIGINT/SIGTERM here.
	Context context.Context
	// Instances overrides the per-cell instance budget (0: campaign
	// default).
	Instances int
	// Seed overrides the base seed (0: campaign default).
	Seed int64
	// MaxStates overrides the per-instance state cap (0: campaign
	// default).
	MaxStates int
	// MaxHits stops the hunt after this many in-order hits (0: search
	// every instance). The cut is deterministic: records end immediately
	// after the MaxHits-th hit at any worker count.
	MaxHits int
	// Workers sizes the shard worker pool (0: GOMAXPROCS). The worker
	// count never changes results, only wall-clock time.
	Workers int
	// ShardSize is the number of consecutive instances a worker claims at
	// once (0: automatic, see spine.Layout). The shard size never changes
	// results.
	ShardSize int
	// Done holds instances already searched (loaded from a partial JSONL
	// record file), which must be a prefix of this run's grid order. They
	// are folded into the summary (and counted against MaxHits) from their
	// recorded results instead of being re-searched, and still reach every
	// sink in stream order — except the append-mode sink of ResumeJSONL,
	// whose file already holds them — so consumers see the complete run.
	Done *Checkpoint
	// Progress, if non-nil, runs on Run's goroutine after every
	// emitted shard.
	Progress func(p Progress)
}

// Progress is the per-shard report of a running campaign.
type Progress struct {
	// Sampler and Variant identify the emitted shard's grid cell.
	Sampler, Variant string
	// Lo and Hi bound the shard's instance range.
	Lo, Hi int
	// Searched and Hits are cumulative over the whole run.
	Searched, Hits int
	// Done and Shards count emitted shards against the total.
	Done, Shards int
}

// Aggregate summarizes the searched instances of one grid cell.
type Aggregate struct {
	Sampler, Variant string
	// Instances counts the cell's emitted records; Searched those that
	// actually evaluated a start network.
	Instances, Searched int
	// Resamples totals the degenerate redraws.
	Resamples int
	// Hits counts found cycles (or accepted candidates).
	Hits int
	// SumStates totals the interned state counts of the cell's searches.
	SumStates int64
}

// Summary is the aggregated outcome of a campaign run, one Aggregate per
// grid cell in (sampler, variant) order.
type Summary struct {
	Campaign string
	Cells    []Aggregate
	// Instances/Searched/Hits total the cells.
	Instances, Searched, Hits int
}

// add folds one record into the summary.
func (s *Summary) add(cell int, rec Record) {
	a := &s.Cells[cell]
	a.Instances++
	s.Instances++
	if rec.Searched {
		a.Searched++
		s.Searched++
	}
	if rec.Hit {
		a.Hits++
		s.Hits++
	}
	a.Resamples += rec.Resamples
	a.SumStates += int64(rec.States)
}

// instanceKey identifies one instance of a campaign: the key a checkpoint
// record must carry to stand for it.
type instanceKey struct {
	Campaign, Sampler, Variant string
	Instance                   int
	Seed                       int64
}

// task defines a resolved campaign's items for the spine executor: one
// cell per (sampler, variant) pair in grid order, holding the cell's
// instances. Run and RunShard both execute instances through it.
func task(c *Campaign) spine.Task[instanceKey, Record] {
	return spine.Task[instanceKey, Record]{
		Name:  "campaign",
		Cells: budgets(*c),
		Key: func(cell, inst int) instanceKey {
			si, vi := c.cell(cell)
			return instanceKey{c.Name, c.Samplers[si].Name, c.Variants[vi].Name, inst, instanceSeed(c.Seed, si, vi, inst, 0)}
		},
		// A worker's arena is the generator RNG and, for candidate-check
		// campaigns, its own checker closure.
		NewWorker: func() func(cell, inst int) Record {
			r := gen.NewRand(0)
			var check func(*graph.Graph) bool
			if c.NewCheck != nil {
				check = c.NewCheck()
			}
			return func(cell, inst int) Record {
				si, vi := c.cell(cell)
				return runInstance(c, si, vi, inst, r, check)
			}
		},
	}
}

// Run executes the campaign's (sampler, variant, instance) grid on the
// spine executor and streams the records to the sinks in deterministic
// grid order; it closes every sink before returning. Records, summary and
// the MaxHits cut are bit-identical for any Workers and ShardSize. A
// checkpoint in opt.Done resumes a partial run, re-searching only the
// missing instances.
func Run(c Campaign, opt Options, sinks ...Sink) (sum Summary, err error) {
	defer func() { err = spine.Close(sinks, err) }()
	if c, err = Resolve(c, opt); err != nil {
		return Summary{}, err
	}
	t := task(&c)
	sum = Summary{Campaign: c.Name, Cells: make([]Aggregate, len(t.Cells))}
	for i := range sum.Cells {
		si, vi := c.cell(i)
		sum.Cells[i] = Aggregate{Sampler: c.Samplers[si].Name, Variant: c.Variants[vi].Name}
	}
	t.Workers, t.ShardSize, t.Context, t.Done = opt.Workers, opt.ShardSize, opt.Context, opt.Done
	// The MaxHits cut happens on the ordered stream, so it lands on the
	// same record at any worker count.
	t.Fold = func(cell int, rec Record) bool {
		sum.add(cell, rec)
		return rec.Hit && opt.MaxHits > 0 && sum.Hits >= opt.MaxHits
	}
	if opt.Progress != nil {
		t.Progress = func(sh spine.Shard, done, shards int) {
			agg := &sum.Cells[sh.Cell]
			opt.Progress(Progress{
				Sampler:  agg.Sampler,
				Variant:  agg.Variant,
				Lo:       sh.Lo,
				Hi:       sh.Hi,
				Searched: sum.Searched,
				Hits:     sum.Hits,
				Done:     done,
				Shards:   shards,
			})
		}
	}
	err = spine.Run(t, sinks...)
	return sum, err
}

// runInstance samples (with degenerate redraws from fresh derived seeds)
// and searches one instance. The record depends only on the campaign
// configuration and the (sampler, variant, instance) triple, never on
// sharding or scheduling.
func runInstance(c *Campaign, si, vi, inst int, r *gen.Rand, check func(*graph.Graph) bool) Record {
	smp, v := &c.Samplers[si], &c.Variants[vi]
	rec := Record{
		Campaign: c.Name,
		Sampler:  smp.Name,
		Variant:  v.Name,
		Instance: inst,
		Seed:     instanceSeed(c.Seed, si, vi, inst, 0),
	}
	var g *graph.Graph
	if smp.Total > 0 {
		// Enumerated indices decode deterministically: redraws are
		// pointless and reseeding the RNG (hundreds of ns per call) would
		// dominate cheap decoders, so the family gets no random source.
		g = smp.Sample(c.N, inst, nil)
	} else {
		for a := 0; a <= c.MaxResamples; a++ {
			r.Seed(instanceSeed(c.Seed, si, vi, inst, a))
			if g = smp.Sample(c.N, inst, r); g != nil {
				break
			}
			rec.Resamples++
		}
	}
	if g == nil {
		return rec
	}
	rec.N = g.N()
	rec.Searched = true
	if check != nil {
		if check(g) {
			rec.Hit = true
			rec.Start = EncodeGraph(g)
			rec.CycleStart = rec.Start
			rec.Moves = encodeMoves(c.Moves)
		}
		return rec
	}
	var fc *cycles.FoundCycle
	var states int
	if v.Schedule != nil {
		// Round variants witness one played trajectory per instance instead
		// of exhausting the best-response state graph; the instance seed
		// selects it and MaxStates caps its committed moves.
		fc, states = cycles.SearchRoundCycle(g, dynamics.Config{
			Game:     v.New(g.N()),
			Tie:      dynamics.TieFirst,
			Seed:     rec.Seed,
			MaxSteps: c.MaxStates,
			Schedule: v.Schedule,
			Oracle:   v.Oracle,
			Backend:  v.Backend,
		})
	} else {
		fc, states = cycles.SearchBestResponseCycle(g, v.New(g.N()), c.MaxStates)
	}
	rec.States = states
	if fc != nil {
		rec.Hit = true
		rec.Start = EncodeGraph(g)
		rec.CycleStart = EncodeGraph(fc.States[0])
		rec.Moves = encodeMoves(fc.Moves)
	}
	return rec
}

// SweepFamily runs a figure candidate sweep of internal/search on the
// campaign spine: the family's indices are sharded over the worker pool,
// each candidate runs through the family's acceptance check, and the
// accepted candidates come back in index order — exactly the sequential
// candidate list of the search package (limit > 0 stops after that many,
// like the sequential searches). Sinks receive the full record stream.
func SweepFamily(f search.Family, limit int, opt Options, sinks ...Sink) ([]*graph.Graph, Summary, error) {
	c := Campaign{
		Name:      "sweep-" + f.Name,
		Samplers:  []Sampler{FamilySampler(f)},
		Variants:  []Variant{{Name: f.Name, New: f.NewGame}},
		N:         f.N,
		Instances: f.Total,
		Seed:      1,
		NewCheck:  f.NewCheck,
		Moves:     f.Moves,
	}
	opt.MaxHits = limit
	var out []*graph.Graph
	collect := FuncSink(func(rec Record) error {
		if !rec.Hit {
			return nil
		}
		g, err := rec.DecodeStart()
		if err != nil {
			return err
		}
		out = append(out, g)
		return nil
	})
	sum, err := Run(c, opt, append(sinks, collect)...)
	return out, sum, err
}
