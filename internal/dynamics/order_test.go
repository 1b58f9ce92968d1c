package dynamics

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// sortedOrder is the reference max-cost order: every agent, stably sorted
// by descending cost, then by descending tie key when keys is non-nil, so
// that equal entries keep index order.
func sortedOrder(costs []game.Cost, keys []int64, alpha game.Alpha) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := costs[b].Cmp(costs[a], alpha); c != 0 {
			return c
		}
		if keys != nil {
			return cmp.Compare(keys[b], keys[a])
		}
		return 0
	})
	return order
}

// tinySource is a rand.Source whose Int63 draws come from {0, 1, 2, 3}, so
// tie keys collide and the index rule decides between them.
type tinySource struct{ x uint64 }

func (s *tinySource) Int63() int64 {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return int64(s.x >> 62)
}

func (s *tinySource) Seed(seed int64) { s.x = uint64(seed) }

// FuzzMaxCostOrder pops the lazy max-cost order over up to 300 costs from
// a small alphabet — mixed Halves under a fractional alpha, so Cost.Cmp
// cross-multiplies and unequal parts tie, and infinite costs — with tie
// keys that are absent, random, or drawn from a four-value set. The popped
// sequence must be the stable sort's in full and in every prefix: each
// prefix length p resets the one reused order and pops only p agents. The
// order must draw exactly one key per agent, before any pop.
func FuzzMaxCostOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0}, uint8(0), int64(1))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0}, uint8(1), int64(2))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), int64(3))
	f.Add([]byte{9, 1, 4, 8, 1, 4, 8, 28, 29, 30, 31, 2, 5}, uint8(2), int64(4))
	f.Add([]byte{1, 8, 1, 8, 9, 16, 17, 24, 25, 31, 3, 7, 11, 15, 19, 23}, uint8(0), int64(5))
	f.Add([]byte("the max cost policy examines agents in descending cost order"), uint8(1), int64(6))
	f.Add([]byte("ties between equal-cost agents are broken uniformly at random"), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, keyForm uint8, seed int64) {
		if len(data) < 1 {
			t.Skip()
		}
		alpha := game.NewAlpha(int64(1+data[0]%7), int64(1+data[0]/7%4))
		data = data[1:]
		if len(data) > 300 {
			data = data[:300]
		}
		n := len(data)
		costs := make([]game.Cost, n)
		for u, b := range data {
			costs[u] = game.Cost{Halves: int64(b % 4), Dist: int64(b / 4 % 8)}
			if costs[u].Dist == 7 {
				costs[u].Dist = game.DistInf
			}
		}
		newRand := func() *rand.Rand {
			switch keyForm % 3 {
			case 1:
				return rand.New(rand.NewSource(seed))
			case 2:
				return rand.New(&tinySource{x: uint64(seed)})
			}
			return nil
		}
		var keys []int64
		if ref := newRand(); ref != nil {
			keys = make([]int64, n)
			for u := range keys {
				keys[u] = ref.Int63()
			}
		}
		want := sortedOrder(costs, keys, alpha)
		var o costOrder
		for p := 0; p <= n; p++ {
			r := newRand()
			o.reset(n, func(u int) game.Cost { return costs[u] }, alpha, r)
			if p == 0 && r != nil {
				// The reset drew n keys: r's next draw is the reference
				// stream's (n+1)-th.
				ref := newRand()
				for range n {
					ref.Int63()
				}
				if r.Int63() != ref.Int63() {
					t.Fatalf("n=%d: the order did not draw exactly one key per agent", n)
				}
			}
			for i := 0; i < p; i++ {
				if u := o.pop(); u != want[i] {
					t.Fatalf("n=%d keys=%d prefix %d: pop %d = %d, sorted order %v", n, keyForm%3, p, i, u, want[:p])
				}
			}
			if p == n {
				if u := o.pop(); u != -1 {
					t.Fatalf("n=%d: pop after all %d agents = %d, want -1", n, n, u)
				}
			}
		}
	})
}

// sortedMaxCost is the reference max cost policy the lazy order replaced:
// each pick reads every cost, draws one tie key per agent in index order
// when ties are random, sorts all agents stably and probes them in order.
// It has no engine path, so Runner calls Pick. failed records the most
// probes that failed before a mover was found in one pick.
type sortedMaxCost struct {
	det    bool
	failed *int
}

func (p sortedMaxCost) Name() string { return "sorted max cost" }

func (p sortedMaxCost) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	n := g.N()
	costs := make([]game.Cost, n)
	var keys []int64
	if !p.det && r != nil {
		keys = make([]int64, n)
	}
	for u := range costs {
		costs[u] = gm.Cost(g, u, s)
		if keys != nil {
			keys[u] = r.Int63()
		}
	}
	for i, u := range sortedOrder(costs, keys, gm.Alpha()) {
		if gm.HasImproving(g, u, s) {
			*p.failed = max(*p.failed, i)
			return u
		}
	}
	return -1
}

// TestMaxCostMatchesSortedOrder plays MaxCost (random ties, several seeds)
// and MaxCostDeterministic move for move against the sorting reference,
// through the engine path and through the public Pick, at Workers 1 and 3,
// in three regimes: a dense network of at most 64 agents (naive scans),
// exact mode above 64 agents (delta scans over the cost cache), and
// landmark mode on the CSR backend (delta scans at every size). Most runs converge, so their last pick
// pops every agent; some picks must probe several happy agents before the
// mover.
func TestMaxCostMatchesSortedOrder(t *testing.T) {
	t.Parallel()
	type regime struct {
		name   string
		start  func(seed int64) graph.Store
		oracle OracleSpec
	}
	regimes := []regime{
		{"naive", func(seed int64) graph.Store { return gen.RandomConnected(48, 60, gen.NewRand(seed)) }, OracleSpec{Mode: OracleExact}},
		{"exact", func(seed int64) graph.Store { return gen.RandomConnected(72, 86, gen.NewRand(seed)) }, OracleSpec{Mode: OracleExact}},
		{"landmark", func(seed int64) graph.Store {
			return graph.NewSparseFrom(gen.RandomConnected(64, 76, gen.NewRand(seed)))
		}, OracleSpec{Mode: OracleLandmark, K: 4}},
	}
	games := []game.Game{game.NewSwap(game.Sum), game.NewSwap(game.Max), game.NewGreedyBuy(game.Sum, game.NewAlpha(9, 2))}
	failed, converged := 0, 0
	for _, rg := range regimes {
		for gi, gm := range games {
			for seed := int64(1); seed <= 3; seed++ {
				for _, det := range []bool{false, true} {
					if det && seed > 1 {
						continue // without tie keys the seed only moves TieRandom
					}
					var lazy Policy = MaxCost{}
					if det {
						lazy = MaxCostDeterministic{}
					}
					cfg := Config{Game: gm, Tie: TieRandom, Seed: seed, Oracle: rg.oracle, MaxSteps: 400}
					start := func() graph.Store { return rg.start(seed + int64(10*gi)) }
					ref := cfg
					ref.Policy = sortedMaxCost{det: det, failed: &failed}
					wantRes, want := playSteps(start(), ref)
					if wantRes.Converged {
						converged++
					}
					// The public Pick runs serially whatever the worker
					// count; the engine path probes in waves at 3.
					runs := []struct {
						p       Policy
						workers int
					}{{plainPolicy{lazy}, 1}, {lazy, 1}, {lazy, 3}}
					for _, run := range runs {
						c := cfg
						c.Policy, c.Workers = run.p, run.workers
						res, got := playSteps(start(), c)
						if !resultsEqual(res, wantRes) || !slices.Equal(got, want) {
							t.Fatalf("%s %s seed %d: %T at %d workers made %d steps %v, sorted order %d steps %v",
								rg.name, gm.Name(), seed, run.p, run.workers, res.Steps, got, wantRes.Steps, want)
						}
					}
				}
			}
		}
	}
	if converged == 0 || failed < 3 {
		t.Fatalf("%d converged runs, at most %d failed probes in one pick; want some of each", converged, failed)
	}
	t.Logf("%d converged runs; up to %d failed probes before a mover", converged, failed)
}

// playSteps runs cfg on g and returns the result with one line per step.
func playSteps(g graph.Store, cfg Config) (Result, []string) {
	var steps []string
	cfg.OnStep = func(step, mover int, mv game.Move, _ graph.Store) {
		steps = append(steps, fmt.Sprintf("%d:%d:%v", step, mover, mv))
	}
	res := NewRunner().Run(g, cfg)
	res.Kinds = slices.Clone(res.Kinds)
	return res, steps
}
