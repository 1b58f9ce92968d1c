package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// landmarkSize is the workload's shape for a run length. n = 4096 is where
// the auto oracle switches to landmark mode and the sparse backend; it is
// the scaled-down stand-in for the n = 10^5 and 10^6 steps.
type landmarkSize struct {
	n, extra, k, steps int
}

func sizeLandmark(secs int) landmarkSize {
	// About one step per second on one core.
	return landmarkSize{n: 4096, extra: 512, k: 16, steps: max(2, secs)}
}

func runLandmark(cfg config) (*result, error) {
	return landmark(cfg, sizeLandmark(cfg.seconds))
}

// step is one move of the trajectory.
type step struct {
	mover int
	mv    game.Move
}

// landmarkConfig is the process of the workload: SUM-SG, max cost policy
// with smallest-index ties, first best move, landmark oracle, one thread.
func landmarkConfig(size landmarkSize) dynamics.Config {
	return dynamics.Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   dynamics.MaxCostDeterministic{},
		Tie:      dynamics.TieFirst,
		MaxSteps: size.steps,
		Workers:  1,
		Oracle:   dynamics.OracleSpec{Mode: dynamics.OracleLandmark, K: size.k},
		Backend:  dynamics.BackendSparse,
	}
}

func landmark(cfg config, size landmarkSize) (*result, error) {
	seed := deriveSeed(cfg.seed, "landmark")
	res := newResult()
	newStart := func() (*graph.Sparse, error) { return gen.SparseCSR(size.n, size.extra, gen.NewRand(seed)) }

	// Set-up: generate the start network on the CSR backend.
	var g *graph.Sparse
	setup, err := repeatSetup(func() error {
		var err error
		g, err = newStart()
		return err
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup.Seconds()

	// Measured pass: Runner.Run for the step budget, landmark build
	// included; OnStep records the trajectory and the gaps between steps.
	var traj []step
	var gaps []float64
	pcfg := landmarkConfig(size)
	start := time.Now()
	last := start
	pcfg.OnStep = func(_ int, mover int, mv game.Move, _ graph.Store) {
		now := time.Now()
		gaps = append(gaps, now.Sub(last).Seconds())
		last = now
		traj = append(traj, step{mover, mv})
	}
	r := dynamics.NewRunner().Run(g, pcfg)
	wall := time.Since(start)
	res.attempted = max(r.Steps, 1)
	res.metrics["throughput_per_s"] = float64(r.Steps) / wall.Seconds()
	res.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(cfg.log, "  measured: %d steps in %.3f s (n=%d, m=%d, landmark:%d)\n", r.Steps, wall.Seconds(), size.n, g.M(), size.k)

	// Checks: the run stopped at its budget or converged; every move
	// strictly lowers its mover's cost; the trajectory digest is pinned.
	if r.Steps != size.steps && !r.Converged {
		return nil, fmt.Errorf("landmark: run stopped after %d of %d steps without converging", r.Steps, size.steps)
	}
	if err := checkImproving(newStart, traj); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "  check: all %d moves strictly lower their mover's cost\n", len(traj))
	if err := checkPinned(cfg, "landmark", trajectoryDigest(traj)); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceLandmark(cfg, res, size, newStart, traj, r.Converged, gaps, wall); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkImproving replays the trajectory from a fresh start network and
// checks each move with exact cost reads.
func checkImproving(newStart func() (*graph.Sparse, error), traj []step) error {
	g, err := newStart()
	if err != nil {
		return err
	}
	gm := game.NewSwap(game.Sum)
	s := game.NewScratch(g.N())
	for i, st := range traj {
		before := gm.Cost(g, st.mover, s)
		game.ApplyMove(g, st.mv)
		if after := gm.Cost(g, st.mover, s); !after.Less(before, gm.Alpha()) {
			return fmt.Errorf("landmark: step %d (%v) changes agent %d's cost from %v to %v", i+1, st.mv, st.mover, before, after)
		}
	}
	return g.Validate()
}

func trajectoryDigest(traj []step) string {
	h := sha256.New()
	for i, st := range traj {
		fmt.Fprintf(h, "%d %d %v\n", i+1, st.mover, st.mv)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracedGame records a span around every cost read and happiness probe
// the policy makes through it.
type tracedGame struct {
	game.Game
	t      *tracer
	parent int64
}

func (tg *tracedGame) Cost(g graph.Store, u int, s *game.Scratch) game.Cost {
	sp := tg.t.begin(tg.parent, "game", "game.cost_read")
	c := tg.Game.Cost(g, u, s)
	sp.end()
	return c
}

func (tg *tracedGame) HasImproving(g graph.Store, u int, s *game.Scratch) bool {
	sp := tg.t.begin(tg.parent, "game", "game.probe")
	ok := tg.Game.HasImproving(g, u, s)
	sp.end()
	return ok
}

// traceLandmark is the traced run: the same process driven one step at a
// time through the public calls Runner.Run makes — BuildLandmarks, the
// policy's Pick, BestMoves, ApplyMove and Landmarks.Apply — each under a
// span. It must reproduce the untraced trajectory move for move.
func traceLandmark(cfg config, res *result, size landmarkSize, newStart func() (*graph.Sparse, error), traj []step, converged bool, gaps []float64, untraced time.Duration) error {
	g, err := newStart()
	if err != nil {
		return err
	}
	pcfg := landmarkConfig(size)
	t := newTracer()
	start := time.Now()
	root := t.begin(0, "bench", "bench.landmark")
	sp := t.begin(root.id, "graph", "graph.landmark_build")
	lmk := graph.BuildLandmarks(g, size.k, nil)
	sp.end()
	s := game.NewScratch(g.N())
	s.SetLandmarks(lmk)
	gm := &tracedGame{Game: pcfg.Game, t: t}
	var moves []game.Move
	for i := 0; i <= len(traj); i++ {
		if i == len(traj) && !converged {
			break
		}
		stepSpan := t.begin(root.id, "dynamics", "dynamics.step")
		pick := t.begin(stepSpan.id, "dynamics", "dynamics.pick")
		gm.parent = pick.id
		mover := pcfg.Policy.Pick(g, gm, s, nil)
		pick.end()
		if i == len(traj) {
			stepSpan.end()
			if mover >= 0 {
				return fmt.Errorf("landmark: replay finds agent %d unhappy where the run converged", mover)
			}
			break
		}
		if mover < 0 {
			return fmt.Errorf("landmark: replay converged at step %d, the run did not", i+1)
		}
		scan := t.begin(stepSpan.id, "game", "game.scan")
		moves, _ = pcfg.Game.BestMoves(g, mover, s, moves[:0])
		scan.end()
		if len(moves) == 0 || mover != traj[i].mover || !moves[0].Equal(traj[i].mv) {
			return fmt.Errorf("landmark: replay step %d differs from the run's %v by agent %d", i+1, traj[i].mv, traj[i].mover)
		}
		mv := moves[0].Clone()
		apply := t.begin(stepSpan.id, "game", "game.apply")
		game.ApplyMove(g, mv)
		apply.end()
		repair := t.begin(stepSpan.id, "graph", "graph.landmark_repair")
		lmk.Apply(g, mv.Agent, mv.Drop, mv.Add)
		repair.end()
		stepSpan.end()
	}
	root.end()
	traced := time.Since(start)
	fmt.Fprintf(cfg.log, "  check: the traced replay reproduces all %d moves\n", len(traj))

	spans := t.snapshot()
	dur, count := spanTotals(spans)
	m := res.metrics
	m["graph.landmark_build_s"] = dur["graph.landmark_build"].Seconds()
	m["graph.landmark_repair_s"] = dur["graph.landmark_repair"].Seconds()
	m["graph.landmark_repairs"] = float64(count["graph.landmark_repair"])
	// Each cost read is one BFS over the whole network: n vertices and 2m
	// adjacency entries (m is fixed under swaps). Computed, not counted.
	if d := dur["game.cost_read"]; d > 0 {
		m["graph.bfs_edges_per_s"] = float64(count["game.cost_read"]) * float64(g.N()+2*g.M()) / d.Seconds()
	}
	m["game.cost_read_s"] = dur["game.cost_read"].Seconds()
	m["game.cost_reads"] = float64(count["game.cost_read"])
	m["game.scan_s"] = dur["game.scan"].Seconds()
	m["game.scans"] = float64(count["game.scan"])
	m["game.probe_s"] = dur["game.probe"].Seconds()
	m["game.probes"] = float64(count["game.probe"])
	m["game.apply_s"] = dur["game.apply"].Seconds()
	m["dynamics.steps"] = float64(len(traj))
	m["dynamics.step_s_p50"] = median(gaps)
	m["dynamics.step_s_max"] = maxOf(gaps)
	m["dynamics.pick_s"] = dur["dynamics.pick"].Seconds()
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	addSelfTimes(res, spans)
	stepTotal := dur["dynamics.step"]
	fmt.Fprintf(cfg.log, "  traced replay %.3f s vs untraced %.3f s; step spans %.3f s: cost reads %.1f%%, scans %.1f%%, probes %.1f%%, pick self %.1f%%\n",
		traced.Seconds(), untraced.Seconds(), stepTotal.Seconds(),
		pct(dur["game.cost_read"], stepTotal), pct(dur["game.scan"], stepTotal), pct(dur["game.probe"], stepTotal),
		pct(dur["dynamics.pick"]-dur["game.cost_read"]-dur["game.probe"], stepTotal))
	return t.write(filepath.Join(cfg.dir, "trace.jsonl"))
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
