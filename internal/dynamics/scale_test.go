package dynamics

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// Large-n scale checks. The n=10^5 cases are opt-in (NCG_SCALE_SMOKE /
// NCG_SCALE_BENCH): they allocate multi-gigabyte bitset adjacencies and run
// for tens of seconds, which the default `go test ./...` and the CI bench
// smoke (-benchtime 1x) must not pay. CI runs the smoke in a dedicated
// timeout-bounded step.

const scaleN = 100_000

func scaleGraph() *graph.Graph {
	return mustSparse(scaleN, scaleN/10, 1)
}

// mustSparse unwraps the generators' typed error for fixed-feasible test
// parameters.
func mustSparse(n, extra int, seed int64) *graph.Graph {
	g, err := gen.SparseNetwork(n, extra, gen.NewRand(seed))
	if err != nil {
		panic(err)
	}
	return g
}

// TestScaleSmokeBestResponseStep: one full SUM-SG best-response step at
// n=10^5 on a sparse network under the landmark oracle — the headline
// capability of landmark mode. Exact mode would need an n² distance matrix
// (~40 GB) before the first scan.
func TestScaleSmokeBestResponseStep(t *testing.T) {
	if os.Getenv("NCG_SCALE_SMOKE") == "" {
		t.Skip("set NCG_SCALE_SMOKE=1 to run the n=1e5 smoke test")
	}
	g := scaleGraph()
	res := Run(g, Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   MinIndex{},
		MaxSteps: 1,
		Oracle:   OracleSpec{Mode: OracleLandmark, K: 16},
	})
	if res.Steps != 1 && !res.Converged {
		t.Fatalf("scale smoke made no progress: %+v", res)
	}
}

// TestScaleSmokeMillionAgentStep: one SUM-SG best-response step at n=10^6
// on the CSR backend, built by gen.SparseCSR with no dense intermediate.
// The dense bitset matrix alone would need ~125 GB here; the whole sparse
// run must keep the mapped heap under 4 GB. HeapSys is the high-water mark
// of memory the runtime obtained for the heap, so the check sees the peak,
// not the post-GC residue.
func TestScaleSmokeMillionAgentStep(t *testing.T) {
	if os.Getenv("NCG_SCALE_SMOKE") == "" {
		t.Skip("set NCG_SCALE_SMOKE=1 to run the n=1e6 smoke test")
	}
	const n = 1_000_000
	sp, err := gen.SparseCSR(n, n/10, gen.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(sp, Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   MinIndex{},
		MaxSteps: 1,
		Oracle:   OracleSpec{Mode: OracleLandmark, K: 16},
	})
	if res.Steps != 1 && !res.Converged {
		t.Fatalf("million-agent smoke made no progress: %+v", res)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > 4<<30 {
		t.Fatalf("peak heap %.2f GB exceeds the 4 GB ceiling", float64(ms.HeapSys)/(1<<30))
	}
	t.Logf("n=%d step on CSR backend: %d step(s), peak heap %.2f GB", n, res.Steps, float64(ms.HeapSys)/(1<<30))
}

// maxCostLandmarkConfig is the process of perfbench's landmark workload:
// max-cost SUM-SG steps with smallest-index ties and the first best move,
// serial, on the CSR backend under landmark:16.
func maxCostLandmarkConfig(steps int) Config {
	return Config{
		Game:     game.NewSwap(game.Sum),
		Policy:   MaxCostDeterministic{},
		Tie:      TieFirst,
		MaxSteps: steps,
		Workers:  1,
		Oracle:   OracleSpec{Mode: OracleLandmark, K: 16},
		Backend:  BackendSparse,
	}
}

// TestScaleSmokeMaxCostRun1e5: ten max-cost SUM-SG steps at n=10^5 on the
// CSR backend. The first step pays the landmark build and the one
// all-sources pass that orders the agents by cost; every later leaf move
// carries the pass's sums across in O(n + m) instead of rerunning it.
// Every move must strictly lower its mover's exact BFS cost.
func TestScaleSmokeMaxCostRun1e5(t *testing.T) {
	if os.Getenv("NCG_SCALE_SMOKE") == "" {
		t.Skip("set NCG_SCALE_SMOKE=1 to run the n=1e5 max-cost run")
	}
	start := func() *graph.Sparse {
		sp, err := gen.SparseCSR(scaleN, scaleN/10, gen.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	var trace []traceStep
	var gaps []time.Duration
	var last time.Time
	cfg := maxCostLandmarkConfig(10)
	cfg.OnStep = func(_, mover int, mv game.Move, _ graph.Store) {
		gaps = append(gaps, time.Since(last).Round(time.Millisecond))
		last = time.Now()
		trace = append(trace, traceStep{mover, mv})
	}
	g := start()
	last = time.Now()
	res := NewRunner().Run(g, cfg)
	if res.Steps != 10 && !res.Converged {
		t.Fatalf("max-cost run stopped early: %+v", res)
	}
	g, gm := start(), cfg.Game
	s := game.NewScratch(scaleN)
	for i, st := range trace {
		before := gm.Cost(g, st.mover, s)
		game.ApplyMove(g, st.mv)
		if after := gm.Cost(g, st.mover, s); !after.Less(before, gm.Alpha()) {
			t.Fatalf("step %d (%v): agent %d's cost %v -> %v is no improvement", i+1, st.mv, st.mover, before, after)
		}
	}
	t.Logf("n=%d: %d max-cost steps, each strictly improving; step times %v", scaleN, res.Steps, gaps)
}

// playTrace runs landmark-mode best-response dynamics on g and returns the
// applied (mover, move) sequence plus the final canonical encoding.
func playTrace(g graph.Store, k, maxSteps int) ([]traceStep, []uint64) {
	var trace []traceStep
	Run(g, Config{
		Game:         game.NewSwap(game.Sum),
		Policy:       MinIndex{},
		MaxSteps:     maxSteps,
		DetectCycles: true,
		Oracle:       OracleSpec{Mode: OracleLandmark, K: k},
		OnStep: func(step, mover int, mv game.Move, _ graph.Store) {
			trace = append(trace, traceStep{mover, mv})
		},
	})
	return trace, g.AppendOwnedRows(nil)
}

type traceStep struct {
	mover int
	mv    game.Move
}

func diffTraces(t *testing.T, dense, sparse []traceStep, de, se []uint64) {
	t.Helper()
	if len(dense) != len(sparse) {
		t.Fatalf("trajectory lengths diverged: dense %d moves, sparse %d", len(dense), len(sparse))
	}
	for i := range dense {
		if !reflect.DeepEqual(dense[i], sparse[i]) {
			t.Fatalf("move %d diverged: dense %+v, sparse %+v", i, dense[i], sparse[i])
		}
	}
	if !reflect.DeepEqual(de, se) {
		t.Fatalf("final encodings diverged after identical moves")
	}
}

// TestSparseBackendParity: the acceptance bit-identity check at small n —
// landmark-mode best-response dynamics played on the dense and CSR
// backends from the same start must apply the same move sequence and end
// in the same canonical encoding.
func TestSparseBackendParity(t *testing.T) {
	for _, n := range []int{16, 48, 96} {
		start := mustSparse(n, n/4, int64(n))
		dt, de := playTrace(start.Clone(), 8, 400)
		st, se := playTrace(graph.NewSparseFrom(start), 8, 400)
		diffTraces(t, dt, st, de, se)
		if len(dt) == 0 {
			t.Fatalf("n=%d: start network was already stable; parity test exercised nothing", n)
		}
	}
}

// TestScaleSmokeSparseParity1e5 is the same move-for-move comparison at
// n=10^5: a landmark run on the sparse backend must be bit-identical to
// the dense run. Env-gated — the dense bitsets alone are ~2.5 GB.
func TestScaleSmokeSparseParity1e5(t *testing.T) {
	if os.Getenv("NCG_SCALE_SMOKE") == "" {
		t.Skip("set NCG_SCALE_SMOKE=1 to run the n=1e5 parity test")
	}
	start := scaleGraph()
	dt, de := playTrace(start.Clone(), 16, 2)
	st, se := playTrace(graph.NewSparseFrom(start), 16, 2)
	diffTraces(t, dt, st, de, se)
	if len(dt) == 0 {
		t.Fatal("n=1e5 start network was already stable; parity test exercised nothing")
	}
}

// TestOracleMemoryBudget pins the oracle's O(kn) memory contract: building
// the landmark oracle with a warm batch scratch must allocate on the order
// of the k×n row matrix (4kn bytes), nowhere near the 4n² of an exact
// distance matrix. TotalAlloc is monotonic, so the measurement is immune to
// GC timing.
func TestOracleMemoryBudget(t *testing.T) {
	const n, k = 8192, 16
	g := mustSparse(n, n/8, 2)
	s := graph.NewBatchBFSScratch(n)
	graph.BuildLandmarks(g, k, s) // warm the scratch arenas

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lm := graph.BuildLandmarks(g, k, s)
	runtime.ReadMemStats(&after)
	if !lm.Complete() {
		t.Fatal("oracle incomplete on a connected graph")
	}
	delta := int64(after.TotalAlloc) - int64(before.TotalAlloc)
	budget := int64((4*k + 64) * n) // rows + ids/suspects/struct slack
	if delta > budget {
		t.Fatalf("oracle build allocated %d bytes, budget %d (O(kn) contract)", delta, budget)
	}
	runtime.KeepAlive(lm)
}

// BenchmarkOracleBuild8192 / BenchmarkLandmarkScan8192 are the CI-sized
// points of the oracle trajectory (recorded in BENCH_baseline.json); the
// 1e5 variants below are the same measurements at headline scale, opt-in
// because of their multi-gigabyte footprint.
func BenchmarkOracleBuild8192(b *testing.B) {
	const n = 8192
	g := mustSparse(n, n/8, 2)
	s := graph.NewBatchBFSScratch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm := graph.BuildLandmarks(g, 16, s)
		if !lm.Complete() {
			b.Fatal("oracle incomplete")
		}
	}
}

func BenchmarkLandmarkScan8192(b *testing.B) {
	const n = 8192
	g := mustSparse(n, n/8, 2)
	lm := graph.BuildLandmarks(g, 16, nil)
	gm := game.NewSwap(game.Sum)
	s := game.NewScratch(n)
	s.SetLandmarks(lm)
	var moves []game.Move
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, _ = gm.BestMoves(g, 0, s, moves[:0])
	}
	runtime.KeepAlive(moves)
}

// BenchmarkSparseCachelessStep times one landmark-filtered best-response
// scan on the CSR backend at n=8192 — the per-step cost of sparse
// dynamics, which never build the all-pairs distance cache. Its dense
// counterpart is BenchmarkLandmarkScan8192; the two should track each
// other, since the scan cost is BFS-bound on both backends.
func BenchmarkSparseCachelessStep(b *testing.B) {
	const n = 8192
	sp, err := gen.SparseCSR(n, n/8, gen.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	lm := graph.BuildLandmarks(sp, 16, nil)
	gm := game.NewSwap(game.Sum)
	s := game.NewScratch(n)
	s.SetLandmarks(lm)
	var moves []game.Move
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, _ = gm.BestMoves(sp, 0, s, moves[:0])
	}
	runtime.KeepAlive(moves)
}

// BenchmarkLandmarkMaxCostRun4096 is perfbench's landmark workload as a Go
// benchmark: a fresh Runner plays 15 max-cost SUM-SG steps at n=4096,
// landmark build, cost ordering, scans and commits included. The start
// network is regenerated outside the timer. Its movers are leaves, so the
// run pays one all-sources pass in all; losing the leaf-swap fold brings
// back one pass per step.
func BenchmarkLandmarkMaxCostRun4096(b *testing.B) {
	const n, steps = 4096, 15
	cfg := maxCostLandmarkConfig(steps)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sp, err := gen.SparseCSR(n, 512, gen.NewRand(2))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if res := NewRunner().Run(sp, cfg); res.Steps != steps {
			b.Fatalf("run made %d of %d steps", res.Steps, steps)
		}
	}
}

func BenchmarkOracleBuild1e5(b *testing.B) {
	if os.Getenv("NCG_SCALE_BENCH") == "" {
		b.Skip("set NCG_SCALE_BENCH=1 to run the n=1e5 benchmarks")
	}
	g := scaleGraph()
	s := graph.NewBatchBFSScratch(scaleN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm := graph.BuildLandmarks(g, 16, s)
		if !lm.Complete() {
			b.Fatal("oracle incomplete")
		}
	}
}

// BenchmarkLandmarkScan1e5 times one filtered best-response scan (BestMoves
// of agent 0) at n=10^5 with the landmark filter armed.
func BenchmarkLandmarkScan1e5(b *testing.B) {
	if os.Getenv("NCG_SCALE_BENCH") == "" {
		b.Skip("set NCG_SCALE_BENCH=1 to run the n=1e5 benchmarks")
	}
	g := scaleGraph()
	lm := graph.BuildLandmarks(g, 16, nil)
	gm := game.NewSwap(game.Sum)
	s := game.NewScratch(scaleN)
	s.SetLandmarks(lm)
	var moves []game.Move
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, _ = gm.BestMoves(g, 0, s, moves[:0])
	}
	runtime.KeepAlive(moves)
}
