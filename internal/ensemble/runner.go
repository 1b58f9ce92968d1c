package ensemble

import (
	"context"
	"fmt"

	"ncg/internal/dynamics"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/rng"
	"ncg/internal/spine"
)

// Options override a scenario's defaults and shape the execution.
type Options struct {
	// Ns overrides the agent-count grid (nil: scenario default).
	Ns []int
	// Trials overrides the per-n trial count (0: scenario default).
	Trials int
	// Seed overrides the base seed (0: scenario default).
	Seed int64
	// Workers is the size of the shard worker pool (0: GOMAXPROCS). The
	// worker count never changes results, only wall-clock time.
	Workers int
	// ShardSize is the number of consecutive trials a worker claims at
	// once (0: automatic, see spine.Layout). The shard size never changes
	// results.
	ShardSize int
	// ProbeWorkers fans each run's happiness probes over a worker pool
	// (see dynamics.Config.Workers). Trial-level parallelism saturates
	// cores at small n; trade it for probe parallelism at large n.
	ProbeWorkers int
	// Done holds trials already executed (loaded from a partial JSONL
	// checkpoint), which must be a prefix of this run's (n, trial) order.
	// They are folded into the summary from their recorded results instead
	// of being re-run, and still reach every sink in stream order — except
	// the append-mode sink of ResumeJSONL, whose file already holds them.
	Done *Checkpoint
	// Context, if non-nil, cancels the run between trials: in-flight
	// shards stop at their next trial boundary, everything already
	// ordered is flushed to the sinks, and Execute returns the context's
	// error — the JSONL file left behind is a maximal resumable
	// checkpoint. The graceful-shutdown seam of the cmds routes
	// SIGINT/SIGTERM here.
	Context context.Context
}

// Aggregate summarizes the trials of one agent count.
type Aggregate struct {
	N          int
	Trials     int
	Converged  int
	Cycled     int
	SumSteps   int64
	MinSteps   int
	MaxSteps   int
	TotalMoves [4]int // by game.MoveKind
}

// AvgSteps returns the mean step count over the aggregated trials.
func (a Aggregate) AvgSteps() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.SumSteps) / float64(a.Trials)
}

// add folds one trial record into the aggregate.
func (a *Aggregate) add(rec Record) {
	a.Trials++
	if rec.Converged {
		a.Converged++
	}
	if rec.Cycled {
		a.Cycled++
	}
	a.SumSteps += int64(rec.Steps)
	if rec.Steps > a.MaxSteps {
		a.MaxSteps = rec.Steps
	}
	if a.Trials == 1 || rec.Steps < a.MinSteps {
		a.MinSteps = rec.Steps
	}
	for k, c := range rec.Moves {
		a.TotalMoves[k] += c
	}
}

// Summary is the aggregated outcome of an ensemble run: one Aggregate per
// agent count, in grid order.
type Summary struct {
	Scenario   string
	Ns         []int
	Aggregates []Aggregate
}

// trialRunner builds one worker's trial function over the grid ns. Its
// arena — a dynamics.Runner holding engine scratches, the distance cache
// and move buffers, and a reseedable RNG for the initial-network
// generators — serves every trial the worker claims, so a sweep's steady
// state stops allocating per trial. The seed stream of a trial depends
// only on (base seed, n, trial), never on sharding, scheduling or arena
// reuse, which is what makes ensemble runs bit-identical at any worker
// count.
func trialRunner(sc Scenario, ns []int, base int64, probeWorkers int) func(cell, trial int) Record {
	dyn, r := dynamics.NewRunner(), gen.NewRand(0)
	return func(cell, trial int) Record {
		n := ns[cell]
		seed := rng.Seed(base, uint64(n), uint64(trial))
		r.Seed(seed)
		// The backend choice never touches the seed stream: NewSparse
		// consumes r exactly like NewInitial, and converting a dense draw
		// reads no randomness, so records are bit-identical across
		// backends.
		var g graph.Store
		if sc.Backend.Resolve(n, sc.Oracle) == dynamics.BackendSparse {
			if sc.NewSparse != nil {
				g = sc.NewSparse(n, r)
			} else {
				g = graph.NewSparseFrom(sc.NewInitial(n, r))
			}
		} else {
			g = sc.NewInitial(n, r)
		}
		res := dyn.Run(g, dynamics.Config{
			Game:         sc.NewGame(n),
			Policy:       sc.Policy.Policy(),
			Tie:          sc.Tie,
			MaxSteps:     sc.MaxSteps,
			Seed:         seed + 1,
			Workers:      probeWorkers,
			Schedule:     sc.Schedule,
			DetectCycles: sc.DetectCycles,
			Oracle:       sc.Oracle,
			Backend:      sc.Backend,
		})
		return Record{
			Scenario:  sc.Name,
			N:         n,
			Trial:     trial,
			Seed:      seed,
			Steps:     res.Steps,
			Converged: res.Converged,
			Cycled:    res.Cycled,
			Moves:     res.MoveKinds,
		}
	}
}

// Execute runs every trial of the scenario on the spine executor, sharding
// the trial ranges over a worker pool, and streams the records to the
// sinks in deterministic (n, trial) order. It closes every sink before
// returning. Results — summary and sink output — are bit-identical for any
// Workers and ShardSize; a checkpoint in opt.Done resumes a partial run,
// re-running only the missing trials.
func Execute(sc Scenario, opt Options, sinks ...Sink) (sum Summary, err error) {
	defer func() { err = spine.Close(sinks, err) }()
	if err := sc.validate(); err != nil {
		return Summary{}, err
	}
	ns := opt.Ns
	if len(ns) == 0 {
		ns = sc.Ns
	}
	trials := opt.Trials
	if trials <= 0 {
		trials = sc.Trials
	}
	base := opt.Seed
	if base == 0 {
		base = sc.Seed
	}
	if sc.CheckN != nil {
		for _, n := range ns {
			if err := sc.CheckN(n); err != nil {
				return Summary{}, fmt.Errorf("ensemble: scenario %q: %v", sc.Name, err)
			}
		}
	}

	sum = Summary{Scenario: sc.Name, Ns: ns, Aggregates: make([]Aggregate, len(ns))}
	cells := make([]int, len(ns))
	for i, n := range ns {
		sum.Aggregates[i] = Aggregate{N: n}
		cells[i] = trials
	}
	err = spine.Run(spine.Task[trialKey, Record]{
		Name:      "ensemble",
		Cells:     cells,
		Workers:   opt.Workers,
		ShardSize: opt.ShardSize,
		Context:   opt.Context,
		Done:      opt.Done,
		Key: func(cell, trial int) trialKey {
			n := ns[cell]
			return trialKey{Scenario: sc.Name, N: n, Trial: trial, Seed: rng.Seed(base, uint64(n), uint64(trial))}
		},
		NewWorker: func() func(cell, trial int) Record { return trialRunner(sc, ns, base, opt.ProbeWorkers) },
		Fold: func(cell int, rec Record) bool {
			sum.Aggregates[cell].add(rec)
			return false
		},
	}, sinks...)
	return sum, err
}
