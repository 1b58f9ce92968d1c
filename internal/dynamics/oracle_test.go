package dynamics

import (
	"fmt"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

func TestParseOracleSpec(t *testing.T) {
	cases := []struct {
		in   string
		want OracleSpec
		ok   bool
	}{
		{"", OracleSpec{Mode: OracleAuto}, true},
		{"auto", OracleSpec{Mode: OracleAuto}, true},
		{"exact", OracleSpec{Mode: OracleExact}, true},
		{"landmark", OracleSpec{Mode: OracleLandmark}, true},
		{"landmark:4", OracleSpec{Mode: OracleLandmark, K: 4}, true},
		{"landmark:999", OracleSpec{Mode: OracleLandmark, K: 999}, true},
		{"landmark:0", OracleSpec{}, false},
		{"landmark:-3", OracleSpec{}, false},
		{"landmark:x", OracleSpec{}, false},
		{"matrix", OracleSpec{}, false},
	}
	for _, c := range cases {
		got, err := ParseOracleSpec(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("ParseOracleSpec(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
		if c.ok {
			back, err := ParseOracleSpec(got.String())
			if err != nil || back.Mode != got.Mode {
				t.Fatalf("round-trip of %q via %q failed: %v, %v", c.in, got.String(), back, err)
			}
		}
	}
}

func TestOracleSpecResolve(t *testing.T) {
	if got := (OracleSpec{}).resolve(AutoLandmarkMinN - 1); got.Mode != OracleExact {
		t.Fatalf("auto below threshold resolved to %v", got.Mode)
	}
	if got := (OracleSpec{}).resolve(AutoLandmarkMinN); got.Mode != OracleLandmark || got.K != DefaultLandmarkK {
		t.Fatalf("auto at threshold resolved to %+v", got)
	}
	if got := (OracleSpec{Mode: OracleLandmark, K: 7}).resolve(10); got.K != 7 {
		t.Fatalf("explicit K overridden: %+v", got)
	}
}

// oracleParityConfigs spans the regimes whose landmark traces must be
// bit-identical to exact mode: both swap games, both cost kinds, the
// engine-backed and plain policies, all tie rules, cycle detection, a
// simultaneous-move schedule, max-cost probe waves whose parallel
// scratches hold no warm all-sources aggregates, and policy-activated
// rounds, whose commits carry the warm aggregates across leaf swaps.
func oracleParityConfigs() []Config {
	return []Config{
		{Game: game.NewSwap(game.Sum), Policy: MaxCost{}, Tie: TieRandom, Seed: 5, DetectCycles: true},
		{Game: game.NewSwap(game.Sum), Policy: MinIndex{}, Tie: TieFirst, DetectCycles: true},
		{Game: game.NewSwap(game.Max), Policy: MaxCostDeterministic{}, Tie: TieFirst},
		{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Tie: TieLast, Seed: 9, DetectCycles: true},
		{Game: game.NewAsymSwap(game.Max), Policy: MinIndex{}, Tie: TieRandom, Seed: 3},
		{Game: game.NewAsymSwap(game.Sum), Policy: Random{}, Tie: TieRandom, Seed: 7, Workers: 3},
		{Game: game.NewSwap(game.Sum), Policy: MinIndex{}, Tie: TieRandom, Seed: 11,
			Schedule: Rounds{Active: ActiveAll, Collision: SkipOnConflict}, DetectCycles: true},
		{Game: game.NewSwap(game.Sum), Policy: MaxCost{}, Tie: TieRandom, Seed: 13, Workers: 3},
		{Game: game.NewSwap(game.Sum), Policy: MaxCostDeterministic{}, Tie: TieFirst,
			Schedule: Rounds{Active: ActivePolicy}, DetectCycles: true},
	}
}

// TestLandmarkRunIsBitIdentical pins the tentpole contract at several sizes
// and landmark counts: a landmark-mode run must produce move-for-move the
// same trajectory, the same cycle verdicts and the same final network as
// the exact-mode run of the same seed. Coverage narrows as n grows (these
// are full dynamics runs, hundreds of steps each); every config × k pair
// still runs at n=72, the first row above the one-word limit (up to 64
// agents the runner routes to the naive scans and arms no landmarks). The
// test and each of its (n, config) cells run in parallel, so the race job
// spreads the cells and the package's other long tests over every core.
func TestLandmarkRunIsBitIdentical(t *testing.T) {
	t.Parallel()
	ks := map[int][]int{72: {1, 2, 4, 16, 64}, 128: {1, 16}, 256: {16}}
	sizes := []int{72, 128, 256}
	if testing.Short() {
		sizes = sizes[:2]
		ks[128] = []int{16}
	}
	for _, n := range sizes {
		extra := n / 4
		mk := func() *graph.Graph { return gen.RandomConnected(n, n-1+extra, gen.NewRand(int64(100+n))) }
		for ci, cfg := range oracleParityConfigs() {
			if n == 256 && (ci == 1 || ci == 3 || ci == 4) {
				// The slowest serial configs; their regimes (MinIndex probe
				// waves, ASG ownership, MAX witnesses) are covered at 128.
				continue
			}
			t.Run(fmt.Sprintf("n=%d/config=%d", n, ci), func(t *testing.T) {
				t.Parallel()
				exact := cfg
				exact.Oracle = OracleSpec{Mode: OracleExact}
				wantRes, wantSteps, wantG := traceOf(mk, exact)
				for _, k := range ks[n] {
					lmc := cfg
					lmc.Oracle = OracleSpec{Mode: OracleLandmark, K: k}
					res, steps, g := traceOf(mk, lmc)
					if !resultsEqual(res, wantRes) {
						t.Fatalf("k=%d: result %+v, want %+v", k, res, wantRes)
					}
					for i := range steps {
						if steps[i] != wantSteps[i] {
							t.Fatalf("k=%d step %d:\n got %s\nwant %s", k, i, steps[i], wantSteps[i])
						}
					}
					if len(steps) != len(wantSteps) || !g.Equal(wantG) {
						t.Fatalf("k=%d: trajectories diverge (%d vs %d steps)", k, len(steps), len(wantSteps))
					}
				}
			})
		}
	}
}

// TestLandmarkRunnerReuse runs landmark-mode trials back to back through
// one Runner across different sizes and seeds; every trial must match a
// fresh single-use run. The sizes lie above the one-word limit, where the
// runner keeps the delta scans and arms the landmarks.
func TestLandmarkRunnerReuse(t *testing.T) {
	r := NewRunner()
	for trial, n := range []int{96, 72, 96, 129} {
		mk := func() *graph.Graph { return gen.RandomConnected(n, n+3, gen.NewRand(int64(7*trial+1))) }
		cfg := Config{
			Game:         game.NewSwap(game.Sum),
			Policy:       MaxCost{},
			Seed:         int64(trial),
			Oracle:       OracleSpec{Mode: OracleLandmark, K: 5},
			DetectCycles: true,
		}
		want := Run(mk(), cfg)
		got := r.Run(mk(), cfg)
		if !resultsEqual(got, want) {
			t.Fatalf("trial %d (n=%d): reused runner %+v, fresh %+v", trial, n, got, want)
		}
	}
}

// TestRunnerShrinksArenas: a run at a much smaller size must release the
// big run's arenas instead of pinning them for the rest of a sweep. Every
// size lies above the one-word limit, so each run takes the delta scans and
// builds the distance cache, and the small run must regrow it at its size.
func TestRunnerShrinksArenas(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	big := 330
	cfg := Config{Game: game.NewSwap(game.Sum), Policy: MaxCost{}, DetectCycles: true}
	r.Run(gen.RandomConnected(big, big+10, gen.NewRand(1)), cfg)
	if r.capN != big || r.cache == nil || r.cache.N() != big {
		t.Fatalf("big run left capN=%d cache=%v", r.capN, r.cache != nil)
	}
	// A mild step down must keep the arena capacity watermark.
	r.Run(gen.RandomConnected(big/2, big/2+10, gen.NewRand(2)), cfg)
	if r.capN != big {
		t.Fatalf("2x step-down moved capN to %d", r.capN)
	}
	// A >4x step down must release them; the small run then regrows its own.
	small := big / 5
	res := r.Run(gen.RandomConnected(small, small+10, gen.NewRand(3)), cfg)
	if res.Steps == 0 && !res.Converged {
		t.Fatalf("small run did nothing: %+v", res)
	}
	if r.capN != small {
		t.Fatalf("capN = %d after shrink, want %d", r.capN, small)
	}
	if r.cache == nil || r.cache.N() != small {
		t.Fatalf("cache not regrown at %d after shrink: %v", small, r.cache != nil)
	}
	if r.scrN != small {
		t.Fatalf("scratches still sized %d after shrink", r.scrN)
	}
	if r.lmk != nil && r.lmk.N() > 4*small {
		t.Fatalf("landmark arena still sized %d after shrink", r.lmk.N())
	}
}

// TestStableUnchangedByLandmarks: Stable always runs exact; a stable
// network must stay stable regardless of any prior landmark-mode run on
// the same graph value. The network lies above the one-word limit, so the
// run arms landmarks and Stable builds the distance cache.
func TestStableUnchangedByLandmarks(t *testing.T) {
	g := gen.RandomConnected(80, 88, gen.NewRand(4))
	cfg := Config{
		Game:   game.NewSwap(game.Sum),
		Policy: MinIndex{},
		Oracle: OracleSpec{Mode: OracleLandmark, K: 4},
	}
	res := Run(g, cfg)
	if !res.Converged {
		t.Fatalf("landmark run did not converge: %+v", res)
	}
	if !Stable(g, game.NewSwap(game.Sum)) {
		t.Fatal("converged landmark run left an unstable network")
	}
}

// passCounter is a graph.Store that counts the batched all-sources passes
// and the single-source searches run over the backend it embeds.
type passCounter struct {
	graph.Store
	passes, searches int
}

func (c *passCounter) AllSourcesBFS(res []graph.BFSResult, s *graph.BatchBFSScratch) {
	c.passes++
	c.Store.AllSourcesBFS(res, s)
}

func (c *passCounter) BFS(src int, dist []int32, s *graph.BFSScratch) graph.BFSResult {
	c.searches++
	return c.Store.BFS(src, dist, s)
}

// TestLandmarkRunFoldsLeafSwaps pins the leaf-swap fold of landmark mode: a
// max-cost SUM-SG run reads every agent's cost from one all-sources pass,
// and committing a leaf's swap carries that pass's sums to the next
// network version, so the run pays the pass once, plus once after each
// move of a non-leaf. Sequential and policy-activated round play share the
// commit path, on both backends.
func TestLandmarkRunFoldsLeafSwaps(t *testing.T) {
	scheds := []Scheduler{nil, Rounds{Active: ActivePolicy}}
	allLeaf := false
	for seed := int64(1); seed <= 4; seed++ {
		backends := []func() graph.Store{
			func() graph.Store { return mustSparse(192, 24, seed) },
			func() graph.Store { return graph.NewSparseFrom(mustSparse(192, 24, seed)) },
		}
		for _, start := range backends {
			for _, sched := range scheds {
				g := &passCounter{Store: start()}
				var atStep []int
				var reruns []bool
				res := NewRunner().Run(g, Config{
					Game:     game.NewSwap(game.Sum),
					Policy:   MaxCostDeterministic{},
					Tie:      TieFirst,
					MaxSteps: 12,
					Oracle:   OracleSpec{Mode: OracleLandmark, K: 8},
					Schedule: sched,
					OnStep: func(_, mover int, mv game.Move, sg graph.Store) {
						atStep = append(atStep, g.passes)
						reruns = append(reruns, mv.Kind() != game.KindSwap || sg.Degree(mover) != 1)
					},
				})
				if res.Steps == 0 {
					t.Fatalf("seed %d: start network already stable", seed)
				}
				where := fmt.Sprintf("seed %d %T schedule %v", seed, g.Store, sched)
				if atStep[0] != 1 {
					t.Fatalf("%s: %d passes before the first commit, want 1", where, atStep[0])
				}
				want, leaves := 1, true
				for i, rerun := range reruns {
					if rerun {
						leaves = false
						if i+1 < len(atStep) || res.Converged {
							want++
						}
					}
					if i+1 < len(atStep) && atStep[i+1] != want {
						t.Fatalf("%s: %d passes by step %d, want %d (non-leaf movers so far: %v)",
							where, atStep[i+1], i+2, want, reruns[:i+1])
					}
				}
				if g.passes != want {
					t.Fatalf("%s: %d passes over %d steps, want %d", where, g.passes, res.Steps, want)
				}
				allLeaf = allLeaf || leaves
			}
		}
	}
	if !allLeaf {
		t.Fatal("no run moved leaves only; the one-pass case went unchecked")
	}
}

// TestLandmarkFoldOnlyInSumGames: committing a leaf swap in landmark mode
// folds it into the warm memo with two single-source searches in a SUM
// game, and spends none in a MAX game, whose next cost read reruns the
// pass on a folded memo anyway (the landmark repair searches through
// PartialBFS and BatchBFS only). Costs read after the commit are exact in
// both.
func TestLandmarkFoldOnlyInSumGames(t *testing.T) {
	for _, kind := range []game.DistKind{game.Sum, game.Max} {
		g := &passCounter{Store: mustSparse(64, 8, 1)}
		gm := game.NewSwap(kind)
		r := &Runner{}
		r.eng.reset(r, g, gm, 1, OracleSpec{Mode: OracleLandmark, K: 4})
		e := &r.eng
		u := 0
		for g.Degree(u) != 1 {
			u++
		}
		v := g.NeighborList(u, nil)[0]
		w := 0
		for w == u || w == v {
			w++
		}
		e.cost(0)
		before := g.searches
		e.commit(game.Move{Agent: u, Drop: []int{v}, Add: []int{w}})
		want := 0
		if kind == game.Sum {
			want = 2
		}
		if got := g.searches - before; got != want {
			t.Fatalf("%v: commit ran %d single-source searches, want %d", kind, got, want)
		}
		for x := 0; x < g.N(); x++ {
			if got, want := e.cost(x), gm.Cost(g, x, game.NewScratch(g.N())); got != want {
				t.Fatalf("%v: cost of %d after the commit = %v, want %v", kind, x, got, want)
			}
		}
	}
}
