// Command ncgcycle verifies the paper's better/best-response-cycle
// constructions (Figures 2, 3, 9, 10, 15, 16 and the host-graph
// corollaries) and reports the non-weak-acyclicity analyses, including the
// documented errata of Corollaries 3.6 and 4.2.
//
// Usage:
//
//	ncgcycle [-workers n] [-max-states n] [-progress d]
//	         [-cpuprofile path] [-memprofile path]
//
// The exhaustive state-space explorations run on the interned state store
// as parallel frontier expansions; -workers sets the expansion pool
// (0 = GOMAXPROCS; results never depend on it), -max-states overrides
// every analysis' state cap, and -progress enables periodic progress
// lines on stderr for long explorations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ncg/internal/cli"
	"ncg/internal/cycles"
	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/graph"
)

const usage = `ncgcycle — best-response cycle verification and reachability analyses

Usage:
  ncgcycle [flags]
      -workers n     frontier-expansion workers (0 = GOMAXPROCS;
                     never changes results)
      -max-states n  override the per-analysis state caps (0 = defaults)
      -progress d    print exploration progress every d (e.g. 2s; 0 = off)
      -schedule s    additionally play the figure start networks under an
                     activation schedule (sequential, rounds,
                     rounds-shuffled, rounds-skip, rounds-reject) and
                     report each trajectory's outcome
      -oracle o      distance oracle of the -schedule trajectories (auto,
                     exact, landmark, landmark:k; landmark is
                     bit-identical to exact)
      -backend b     adjacency backend of the -schedule trajectories
                     (auto, dense, sparse; bit-identical either way)
      -cpuprofile path  write a CPU profile of the run (go tool pprof)
      -memprofile path  write a heap profile taken after the run
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app wraps the shared CLI scaffolding (internal/cli): Fail/Errorf abort
// with the right exit code from any depth while run stays testable.
type app struct {
	*cli.App
}

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("ncgcycle", usage, stdout, stderr, func(ca *cli.App) {
		(&app{ca}).main(args)
	})
}

func (a *app) main(args []string) {
	fs := flag.NewFlagSet("ncgcycle", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	workers := fs.Int("workers", 0, "")
	maxStates := fs.Int("max-states", 0, "")
	progress := fs.Duration("progress", 0, "")
	scheduleName := fs.String("schedule", "", "")
	oracleName := fs.String("oracle", "auto", "")
	backendName := fs.String("backend", "auto", "")
	var prof cli.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected argument %q", fs.Arg(0))
	}
	if *workers < 0 {
		a.Fail("-workers must be >= 0, got %d", *workers)
	}
	if *maxStates < 0 {
		a.Fail("-max-states must be >= 0, got %d", *maxStates)
	}
	if *progress < 0 {
		a.Fail("-progress must be >= 0, got %v", *progress)
	}
	var sched dynamics.Scheduler
	if *scheduleName != "" {
		s, ok := dynamics.ScheduleByName(*scheduleName)
		if !ok {
			a.Fail("unknown schedule %q (schedules: %s)", *scheduleName, strings.Join(dynamics.ScheduleNames(), ", "))
		}
		sched = s
	}
	oracle, err := dynamics.ParseOracleSpec(*oracleName)
	if err != nil {
		a.Fail("%v", err)
	}
	backend, err := dynamics.ParseBackendSpec(*backendName)
	if err != nil {
		a.Fail("%v", err)
	}

	// Interrupt seam: explorations abort at their next level barrier, the
	// analysis loop stops between analyses, and the command exits 130.
	ctx, stop := cli.SignalContext(a.Stderr, "ncgcycle")
	defer stop()
	defer prof.Start(a.App)()
	interrupted := func() {
		fmt.Fprintln(a.Stderr, "ncgcycle: interrupted")
		cli.Exit(cli.SignalExitCode)
	}

	failures := 0
	verify := func(inst cycles.Instance) {
		err := inst.Verify()
		status := "ok"
		if err != nil {
			status = "FAIL: " + err.Error()
			failures++
		}
		fmt.Fprintf(a.Stdout, "%-42s %d steps  %s\n", inst.Name, len(inst.Steps), status)
	}
	for _, inst := range []cycles.Instance{
		cycles.Fig2MaxSG(),
		cycles.Fig3SumASG(),
		cycles.Fig3SumASGHost(),
		cycles.Fig3SumASGHostRepaired(),
		cycles.Fig9SumGBG(),
		cycles.Fig9SumBG(),
		cycles.Fig9SumGBGHost(),
		cycles.Fig9SumBGHost(),
		cycles.Fig10MaxGBG(),
		cycles.Fig10MaxBG(),
		cycles.Fig15SumBilateral(),
		cycles.Fig16MaxBilateral(),
	} {
		verify(inst)
	}

	fmt.Fprintln(a.Stdout, "\nnon-weak-acyclicity analyses (exhaustive state-space exploration):")
	report := func(name string, res cycles.ReachResult, err error, wantStableFree bool) {
		if err != nil {
			fmt.Fprintf(a.Stdout, "%-42s error: %v\n", name, err)
			failures++
			return
		}
		verdict := "stable reachable (weakly acyclic from here)"
		if !res.StableReachable {
			verdict = "no stable state reachable (NOT weakly acyclic)"
		}
		fmt.Fprintf(a.Stdout, "%-42s %4d states  %s\n", name, res.States, verdict)
		if wantStableFree == res.StableReachable {
			failures++
		}
	}
	// explore runs one analysis with the shared flags; cap is the
	// analysis' default state budget unless -max-states overrides it.
	explore := func(name string, mk func() *graphGame, cap int, wantStableFree bool) {
		if *maxStates > 0 {
			cap = *maxStates
		}
		gg := mk()
		opt := cycles.ExploreOptions{
			MaxStates:    cap,
			BestResponse: gg.best,
			Workers:      *workers,
			Cancel:       ctx.Done(),
		}
		if *progress > 0 {
			last := time.Now()
			opt.Progress = func(p cycles.ExploreProgress) {
				if time.Since(last) < *progress {
					return
				}
				last = time.Now()
				fmt.Fprintf(a.Stderr, "  %s: level %d, %d states, frontier %d, %.1f MB\n",
					name, p.Level, p.States, p.Frontier, float64(p.Bytes)/(1<<20))
			}
		}
		res, err := cycles.Explore(gg.start(), gg.game, opt)
		if errors.Is(err, cycles.ErrCancelled) {
			interrupted()
		}
		report(name, res, err, wantStableFree)
	}

	explore("Thm 5.1 SUM-bilateral", func() *graphGame {
		return &graphGame{cycles.Fig15Start, game.NewBilateral(game.Sum, cycles.Fig15Alpha), false}
	}, 5000, true)
	explore("Thm 3.3 SUM-ASG (best responses)", func() *graphGame {
		return &graphGame{cycles.Fig3Start, game.NewAsymSwap(game.Sum), true}
	}, 5000, true)
	explore("Cor 3.6 SUM repaired host", func() *graphGame {
		return &graphGame{cycles.Fig3Start, game.NewAsymSwapHost(game.Sum, cycles.Fig3HostGraphRepaired()), false}
	}, 5000, true)
	explore("Cor 3.6 SUM paper host (erratum)", func() *graphGame {
		return &graphGame{cycles.Fig3Start, game.NewAsymSwapHost(game.Sum, cycles.Fig3HostGraph()), false}
	}, 30000, false)
	explore("Cor 4.2 SUM paper host (erratum)", func() *graphGame {
		return &graphGame{cycles.Fig9Start, game.NewGreedyBuyHost(game.Sum, cycles.Fig9Alpha, cycles.Fig9HostGraph()), false}
	}, 30000, false)
	explore("Cor 4.2 MAX paper host (erratum)", func() *graphGame {
		return &graphGame{cycles.Fig10Start, game.NewGreedyBuyHost(game.Max, cycles.Fig10Alpha, cycles.Fig10HostGraph()), false}
	}, 30000, false)

	// Schedule spot checks: play each figure start network under the
	// requested activation schedule. These trajectories are exploratory
	// (seeded, deterministic) and do not count as verifications.
	if sched != nil {
		fmt.Fprintf(a.Stdout, "\ntrajectories under the %s schedule (seed 1, deterministic ties):\n", sched.Name())
		cap := 4000
		if *maxStates > 0 {
			cap = *maxStates
		}
		play := func(name string, g *graph.Graph, gm game.Game) {
			if ctx.Err() != nil {
				interrupted()
			}
			res := dynamics.Run(backend.Materialize(g.Clone(), oracle), dynamics.Config{
				Game: gm, Tie: dynamics.TieFirst, Seed: 1,
				MaxSteps: cap, Schedule: sched, DetectCycles: true,
				Oracle: oracle, Cancel: ctx.Done(),
			})
			var outcome string
			switch {
			case res.Cycled:
				outcome = fmt.Sprintf("cycle of %d moves", res.CycleLen)
			case res.Converged:
				outcome = "converged to a stable network"
			default:
				outcome = "step bound reached without a repeat"
			}
			if res.Rounds > 0 {
				outcome = fmt.Sprintf("%s (%d rounds, %d moves withheld)", outcome, res.Rounds, res.Skipped)
			}
			fmt.Fprintf(a.Stdout, "%-42s %4d steps  %s\n", name, res.Steps, outcome)
		}
		play("Fig 2 MAX-SG", cycles.Fig2Start(), game.NewSwap(game.Max))
		play("Fig 3 SUM-ASG", cycles.Fig3Start(), game.NewAsymSwap(game.Sum))
		play("Fig 9 SUM-GBG", cycles.Fig9Start(), game.NewGreedyBuy(game.Sum, cycles.Fig9Alpha))
		play("Fig 10 MAX-GBG", cycles.Fig10Start(), game.NewGreedyBuy(game.Max, cycles.Fig10Alpha))
	}

	if failures > 0 {
		fmt.Fprintf(a.Stdout, "\n%d verification failures\n", failures)
		cli.Exit(1)
	}
	fmt.Fprintln(a.Stdout, "\nall verifications behave as documented")
}

// graphGame bundles one analysis' start network, game and move mode.
type graphGame struct {
	start func() *graph.Graph
	game  game.Game
	best  bool
}
