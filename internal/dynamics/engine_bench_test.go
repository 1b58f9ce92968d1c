package dynamics

import (
	"slices"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// Cache-construction benchmarks: the all-pairs distance rows (graph.Rows
// over every vertex) that open every engine run, on the paper's budget-3
// initial ensembles. The BFS variants are the pre-kernel baseline (one
// single-source search per row); CacheBuild* is the batched bit-parallel
// kernel of Rows.SearchAll, and the Workers variant shards source groups
// over a pool, as engines with Workers > 1 do. BenchmarkCacheBuild256 is
// part of the CI performance trajectory.
func benchCacheBuild(b *testing.B, n, shards int, perSource bool) {
	g := gen.BudgetNetwork(n, 3, gen.NewRand(1))
	c := new(graph.Rows)
	c.SearchAll(g, nil) // grow the arenas outside the timed loop
	mat := make([]int32, n*n)
	s := graph.NewBFSScratch(n)
	var par []*graph.BatchBFSScratch
	for i := 0; i < shards; i++ {
		par = append(par, graph.NewBatchBFSScratch(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perSource {
			for u := 0; u < n; u++ {
				g.BFS(u, mat[u*n:(u+1)*n], s)
			}
		} else {
			c.SearchAll(g, par)
		}
	}
}

func BenchmarkCacheBuildBFS64(b *testing.B)  { benchCacheBuild(b, 64, 0, true) }
func BenchmarkCacheBuild64(b *testing.B)     { benchCacheBuild(b, 64, 0, false) }
func BenchmarkCacheBuildBFS128(b *testing.B) { benchCacheBuild(b, 128, 0, true) }
func BenchmarkCacheBuild128(b *testing.B)    { benchCacheBuild(b, 128, 0, false) }
func BenchmarkCacheBuildBFS256(b *testing.B) { benchCacheBuild(b, 256, 0, true) }
func BenchmarkCacheBuild256(b *testing.B)    { benchCacheBuild(b, 256, 0, false) }
func BenchmarkCacheBuildBFS512(b *testing.B) { benchCacheBuild(b, 512, 0, true) }
func BenchmarkCacheBuild512(b *testing.B)    { benchCacheBuild(b, 512, 0, false) }

func BenchmarkCacheBuildWorkers4x256(b *testing.B) { benchCacheBuild(b, 256, 4, false) }
func BenchmarkCacheBuildWorkers4x512(b *testing.B) { benchCacheBuild(b, 512, 4, false) }

// TestCacheBuildShardedMatchesSerial pins the sharded build to the serial
// one bit for bit, across shard counts and a size that is not a multiple
// of 64.
func TestCacheBuildShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{65, 200, 256} {
		g := gen.BudgetNetwork(n, 3, gen.NewRand(9))
		want := new(graph.Rows)
		want.SearchAll(g, nil)
		for _, shards := range []int{2, 3, 8} {
			var par []*graph.BatchBFSScratch
			for i := 0; i < shards; i++ {
				par = append(par, graph.NewBatchBFSScratch(n))
			}
			got := new(graph.Rows)
			got.SearchAll(g, par)
			for u := 0; u < n; u++ {
				if !slices.Equal(got.Row(u), want.Row(u)) {
					t.Fatalf("n=%d shards=%d: row %d differs", n, shards, u)
				}
				if got.Result(u) != want.Result(u) {
					t.Fatalf("n=%d shards=%d: aggregates of %d differ", n, shards, u)
				}
			}
		}
	}
}

// TestEngineParallelCacheBuild runs an engine-driven process with several
// probe workers (which also shards the cache build) and checks the trace
// equals the single-worker engine run.
func TestEngineParallelCacheBuild(t *testing.T) {
	mk := func() *graph.Graph { return gen.BudgetNetwork(130, 3, gen.NewRand(3)) }
	cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Tie: TieFirst, Seed: 11, MaxSteps: 60}
	g1 := mk()
	want := Run(g1, cfg)
	cfgW := cfg
	cfgW.Workers = 4
	g2 := mk()
	got := Run(g2, cfgW)
	if got.Steps != want.Steps || got.Converged != want.Converged || !g1.Equal(g2) {
		t.Fatalf("parallel-build run diverged: %+v vs %+v", got, want)
	}
}
