// Command ncgsim runs the simulation workloads of the repository on the
// ensemble execution spine: named scenarios from the registry and the
// empirical figures of Kawald & Lenzner (SPAA'13).
//
// Usage:
//
//	ncgsim list
//	ncgsim run <scenario> [-trials n] [-nmin n] [-nmax n] [-nstep n]
//	                      [-seed s] [-workers w] [-shard s]
//	                      [-jsonl path] [-csv path] [-resume]
//	ncgsim sweep <scenario> -nmin 10 -nmax 100 [-nstep 10] [...run flags]
//	ncgsim fig <number> [-trials n] [-nmin n] [-nmax n] [-nstep n]
//	                    [-seed s] [-workers w]
//
// "list" prints the registry. "run" executes a scenario on its default
// grid (or an overridden one), streaming per-trial records to optional
// JSONL/CSV sinks and printing the summary table; -resume continues an
// interrupted run from a partial -jsonl file, re-running only the missing
// trials (a -csv file given with it is rewritten with every trial).
// "sweep" is "run" with a mandatory explicit n-grid. "fig" regenerates an
// empirical figure (7, 8, 11-14) as the text tables of the paper's plots.
//
// All runs are deterministic: records and tables depend only on the seed,
// never on worker count or shard size.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"ncg/internal/cli"
	"ncg/internal/dynamics"
	"ncg/internal/ensemble"
	"ncg/internal/experiments"
)

const usage = `ncgsim — selfish network creation ensembles

Usage:
  ncgsim list
      List the registered scenarios (name, game family, policy, defaults).

  ncgsim run <scenario> [flags]
      Run a scenario. Defaults come from the registry; override with:
        -trials n   trials per agent count
        -nmin/-nmax/-nstep   replace the agent-count grid
        -seed s     base seed (every trial derives its own stream)
        -workers w  worker goroutines (0 = GOMAXPROCS; never changes results)
        -shard s    trials per shard (0 = auto; never changes results)
        -probe-workers w  per-run happiness-probe workers
        -schedule s override the scenario's activation schedule
                    (sequential, rounds, rounds-shuffled, rounds-skip,
                    rounds-reject)
        -oracle o   distance oracle (auto, exact, landmark, landmark:k;
                    landmark records are bit-identical to exact, so this
                    trades memory for wall-clock only)
        -backend b  adjacency backend (auto, dense, sparse; auto pairs
                    sparse with landmark runs, records are bit-identical
                    either way)
        -jsonl path stream per-trial records as JSON lines
        -csv path   stream per-trial records as CSV
        -resume     continue an interrupted run from the -jsonl file
                    (a -csv file is rewritten with every trial)
        -cpuprofile path  write a CPU profile of the run (go tool pprof)
        -memprofile path  write a heap profile taken after the run

  ncgsim sweep <scenario> -nmin n -nmax n [flags]
      Run a scenario over an explicit agent-count grid (same flags as run).

  ncgsim fig <number> [flags]
      Regenerate an empirical figure (7, 8, 11, 12, 13, 14) as text
      tables; -trials/-nmin/-nmax/-nstep/-seed/-workers as above.

Run "ncgsim list" to see the available scenarios.
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app wraps the shared CLI scaffolding (internal/cli): Fail/Errorf abort
// with the right exit code from any depth while run stays testable.
type app struct {
	*cli.App
}

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("ncgsim", usage, stdout, stderr, func(ca *cli.App) {
		(&app{ca}).main(args)
	})
}

func (a *app) main(args []string) {
	if len(args) < 1 {
		a.Fail("no subcommand")
	}
	switch args[0] {
	case "list":
		a.cmdList(args[1:])
	case "run":
		a.cmdRun(args[1:], false)
	case "sweep":
		a.cmdRun(args[1:], true)
	case "fig":
		a.cmdFig(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Fprint(a.Stdout, usage)
	default:
		a.Fail("unknown subcommand %q", args[0])
	}
}

func (a *app) cmdList(args []string) {
	if len(args) > 0 {
		a.Fail("list takes no arguments")
	}
	tw := tabwriter.NewWriter(a.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tFAMILY\tPOLICY\tSCHEDULE\tNS\tTRIALS\tDESCRIPTION")
	for _, sc := range ensemble.List() {
		schedule := "sequential"
		if sc.Schedule != nil {
			schedule = sc.Schedule.Name()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%v\t%d\t%s\n",
			sc.Name, sc.Family, sc.Policy, schedule, sc.Ns, sc.Trials, sc.Description)
	}
	tw.Flush()
}

// gridFlags holds the shared grid/seed/worker flags and their validation.
type gridFlags struct {
	trials, nmin, nmax, nstep int
	seed                      int64
	workers, shard, probeWrk  int
	schedule, oracle          string
	backend                   string
}

func (gf *gridFlags) register(fs *flag.FlagSet, withShard bool) {
	fs.IntVar(&gf.trials, "trials", 0, "trials per agent count (0: scenario default)")
	fs.IntVar(&gf.nmin, "nmin", 0, "smallest agent count")
	fs.IntVar(&gf.nmax, "nmax", 0, "largest agent count")
	fs.IntVar(&gf.nstep, "nstep", 10, "agent count step")
	fs.Int64Var(&gf.seed, "seed", 0, "base seed (0: scenario default)")
	fs.IntVar(&gf.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	if withShard {
		fs.IntVar(&gf.shard, "shard", 0, "trials per shard (0 = auto)")
		fs.IntVar(&gf.probeWrk, "probe-workers", 0, "per-run happiness-probe workers")
		fs.StringVar(&gf.schedule, "schedule", "", "override the scenario's activation schedule (empty: scenario default)")
		fs.StringVar(&gf.oracle, "oracle", "", "distance oracle: auto, exact, landmark, landmark:k (empty: scenario default)")
		fs.StringVar(&gf.backend, "backend", "", "adjacency backend: auto, dense, sparse (empty: scenario default)")
	}
}

// oracleOverride resolves -oracle; ok is false if the scenario default
// applies.
func (gf *gridFlags) oracleOverride(a *app) (dynamics.OracleSpec, bool) {
	if gf.oracle == "" {
		return dynamics.OracleSpec{}, false
	}
	spec, err := dynamics.ParseOracleSpec(gf.oracle)
	if err != nil {
		a.Fail("%v", err)
	}
	return spec, true
}

// backendOverride resolves -backend; ok is false if the scenario default
// applies.
func (gf *gridFlags) backendOverride(a *app) (dynamics.BackendSpec, bool) {
	if gf.backend == "" {
		return dynamics.BackendAuto, false
	}
	spec, err := dynamics.ParseBackendSpec(gf.backend)
	if err != nil {
		a.Fail("%v", err)
	}
	return spec, true
}

// scheduleOverride resolves -schedule, nil if the scenario default applies.
func (gf *gridFlags) scheduleOverride(a *app) dynamics.Scheduler {
	if gf.schedule == "" {
		return nil
	}
	s, ok := dynamics.ScheduleByName(gf.schedule)
	if !ok {
		a.Fail("unknown schedule %q (schedules: %s)", gf.schedule, strings.Join(dynamics.ScheduleNames(), ", "))
	}
	return s
}

// validate checks the flag combination up front and returns the explicit
// grid, nil if the scenario defaults apply.
func (gf *gridFlags) validate(a *app, gridRequired bool) []int {
	if gf.trials < 0 {
		a.Fail("-trials must be positive, got %d", gf.trials)
	}
	if gf.nstep <= 0 {
		a.Fail("-nstep must be positive, got %d", gf.nstep)
	}
	if (gf.nmin == 0) != (gf.nmax == 0) {
		a.Fail("-nmin and -nmax must be given together")
	}
	if gf.nmin == 0 {
		if gridRequired {
			a.Fail("an explicit grid is required: give -nmin and -nmax")
		}
		return nil
	}
	if gf.nmin < 1 || gf.nmax < gf.nmin {
		a.Fail("need 1 <= nmin <= nmax, got nmin=%d nmax=%d", gf.nmin, gf.nmax)
	}
	var ns []int
	for n := gf.nmin; n <= gf.nmax; n += gf.nstep {
		ns = append(ns, n)
	}
	return ns
}

func (a *app) cmdRun(args []string, gridRequired bool) {
	sub := "run"
	if gridRequired {
		sub = "sweep"
	}
	if len(args) < 1 || len(args[0]) == 0 || args[0][0] == '-' {
		a.Fail("%s needs a scenario name as its first argument", sub)
	}
	name := args[0]
	sc, ok := ensemble.Lookup(name)
	if !ok {
		a.Fail("unknown scenario %q; see ncgsim list", name)
	}
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	var gf gridFlags
	gf.register(fs, true)
	jsonlPath := fs.String("jsonl", "", "stream per-trial records to this JSONL file")
	csvPath := fs.String("csv", "", "stream per-trial records to this CSV file")
	resume := fs.Bool("resume", false, "resume from a partial -jsonl file")
	var prof cli.Profiles
	prof.Register(fs)
	if err := fs.Parse(args[1:]); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	ns := gf.validate(a, gridRequired)
	if s := gf.scheduleOverride(a); s != nil {
		sc.Schedule = s
		if _, ok := s.(dynamics.Rounds); ok {
			// Round play can oscillate even where sequential play converges;
			// report the repeat as a cycle instead of running to the bound.
			sc.DetectCycles = true
		}
	}
	if spec, ok := gf.oracleOverride(a); ok {
		sc.Oracle = spec
	}
	if spec, ok := gf.backendOverride(a); ok {
		sc.Backend = spec
	}
	if *resume && *jsonlPath == "" {
		a.Fail("-resume needs -jsonl")
	}
	// An infeasible agent count (explicit or scenario default) is a usage
	// error, caught before any trial runs.
	if sc.CheckN != nil {
		grid := ns
		if grid == nil {
			grid = sc.Ns
		}
		for _, n := range grid {
			if err := sc.CheckN(n); err != nil {
				a.Fail("scenario %s: %v", name, err)
			}
		}
	}

	ctx, stop := cli.SignalContext(a.Stderr, "ncgsim")
	defer stop()
	opt := ensemble.Options{
		Ns:           ns,
		Trials:       gf.trials,
		Seed:         gf.seed,
		Workers:      gf.workers,
		ShardSize:    gf.shard,
		ProbeWorkers: gf.probeWrk,
		Context:      ctx,
	}
	var sinks []ensemble.Sink
	if *jsonlPath != "" {
		if *resume {
			cp, sink, err := ensemble.ResumeJSONL(*jsonlPath)
			if err != nil {
				a.Errorf("%v", err)
			}
			fmt.Fprintf(a.Stderr, "ncgsim: resuming, %d trials recovered from %s\n", cp.Len(), *jsonlPath)
			opt.Done = cp
			sinks = append(sinks, sink)
		} else {
			sink, err := ensemble.CreateJSONL(*jsonlPath)
			if err != nil {
				a.Errorf("%v", err)
			}
			sinks = append(sinks, sink)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			a.Errorf("%v", err)
		}
		sinks = append(sinks, ensemble.NewCSVSink(f))
	}

	stopProfiles := prof.Start(a.App)
	sum, err := ensemble.Execute(sc, opt, sinks...)
	stopProfiles()
	if errors.Is(err, context.Canceled) {
		// Interrupted at a trial boundary: the sinks flushed a clean
		// resumable prefix before Execute returned.
		if *jsonlPath != "" {
			fmt.Fprintf(a.Stderr, "ncgsim: interrupted; continue with: ncgsim %s %s -resume -jsonl %s [same flags]\n", sub, name, *jsonlPath)
		} else {
			fmt.Fprintln(a.Stderr, "ncgsim: interrupted (rerun with -jsonl to make runs resumable)")
		}
		cli.Exit(cli.SignalExitCode)
	}
	if err != nil {
		a.Errorf("%v", err)
	}
	fmt.Fprintf(a.Stdout, "%s (%s, %s policy)\n\n", sc.Name, sc.Family, sc.Policy)
	tw := tabwriter.NewWriter(a.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\ttrials\tconverged\tcycled\tavg steps\tmin\tmax\tdel/swap/buy/multi")
	for _, a := range sum.Aggregates {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d/%d/%d/%d\n",
			a.N, a.Trials, a.Converged, a.Cycled, a.AvgSteps(), a.MinSteps, a.MaxSteps,
			a.TotalMoves[0], a.TotalMoves[1], a.TotalMoves[2], a.TotalMoves[3])
	}
	tw.Flush()
}

func (a *app) cmdFig(args []string) {
	if len(args) < 1 {
		a.Fail("fig needs a figure number (7, 8, 11, 12, 13, 14)")
	}
	num, err := strconv.Atoi(args[0])
	if err != nil {
		a.Fail("figure number %q is not an integer", args[0])
	}
	switch num {
	case 7, 8, 11, 12, 13, 14:
	default:
		a.Fail("no empirical figure %d: the empirical figures are 7, 8, 11, 12, 13 and 14 (theory figures are verified by cmd/ncgcycle)", num)
	}
	fs := flag.NewFlagSet("fig", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	var gf gridFlags
	gf.register(fs, false)
	if err := fs.Parse(args[1:]); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	if gf.trials == 0 {
		gf.trials = 100
	}
	if gf.seed == 0 {
		gf.seed = 1
	}
	// The grid bounds default independently, so `fig 7 -nmax 30` works.
	if gf.nmin == 0 {
		gf.nmin = 10
	}
	if gf.nmax == 0 {
		gf.nmax = 50
	}
	ns := gf.validate(a, true)

	opt := experiments.Options{Ns: ns, Trials: gf.trials, Seed: gf.seed, Workers: gf.workers}
	fr, err := experiments.Figure(num, opt)
	if err != nil {
		// The figure number and trials are checked above, so what is
		// left is a grid on which no series of the figure can run.
		a.Fail("%v", err)
	}
	fmt.Fprint(a.Stdout, fr.Render())
	fmt.Fprintf(a.Stdout, "\nworst max-steps/n over the grid: %.2f\n", fr.Bound())
}
