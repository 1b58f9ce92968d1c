package campaign

import (
	"testing"

	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

func TestSampleCyclePendantInvariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := SampleCyclePendant(gen.NewRand(seed))
		if g == nil {
			continue
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
		if g.M() != g.N() {
			t.Fatalf("seed %d: %d edges on %d vertices (not unit budget)", seed, g.M(), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if g.OutDegree(v) != 1 {
				t.Fatalf("seed %d: vertex %d owns %d edges", seed, v, g.OutDegree(v))
			}
		}
	}
}

func TestSampleCyclePendantDeterministic(t *testing.T) {
	a := SampleCyclePendant(gen.NewRand(5))
	b := SampleCyclePendant(gen.NewRand(5))
	if (a == nil) != (b == nil) {
		t.Fatal("nondeterministic sampling")
	}
	if a != nil && !a.Equal(b) {
		t.Fatal("nondeterministic sampling")
	}
}

// TestHuntMatchesSequentialReference pins the campaign-backed hunt to a
// plain sequential loop with the same seed discipline: instance i draws
// from gen.Seed(seed, 0, 0, i), redrawing degenerate samples from
// gen.Seed(seed, 0, 0, i, attempt), and every drawn network is searched —
// so degenerate draws never shrink the budget (the pre-campaign hunt
// silently counted them against maxInstances).
func TestHuntMatchesSequentialReference(t *testing.T) {
	const maxInstances, stateCap = 12, 150
	res, searched, err := runHunt(game.Sum, 2, maxInstances, stateCap, Options{Workers: 3, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	gm := game.NewAsymSwap(game.Sum)
	refSearched := 0
	refHit := -1
	for i := 0; i < maxInstances && refHit < 0; i++ {
		net := sampleRef(2, i)
		if net == nil {
			continue
		}
		refSearched++
		if fc := cycles.FindBestResponseCycle(net, gm, stateCap); fc != nil {
			refHit = i
		}
	}
	if searched != refSearched {
		t.Fatalf("hunt searched %d instances, reference searched %d", searched, refSearched)
	}
	if (res != nil) != (refHit >= 0) {
		t.Fatalf("hunt hit = %v, reference hit instance %d", res != nil, refHit)
	}
	if res != nil && res.Instance != refHit {
		t.Fatalf("hunt hit instance %d, reference %d", res.Instance, refHit)
	}
}

// sampleRef draws the hunt's instance i exactly as the campaign does: the
// cycle-pendant sampler over the derived attempt streams of cell (0, 0).
func sampleRef(seed int64, i int) *graph.Graph {
	for a := 0; a <= 32; a++ {
		s := gen.Seed(seed, 0, 0, uint64(i))
		if a > 0 {
			s = gen.Seed(seed, 0, 0, uint64(i), uint64(a))
		}
		if g := SampleCyclePendant(gen.NewRand(s)); g != nil {
			return g
		}
	}
	return nil
}

// TestHuntWorkerInvariance: the hunt's outcome (hit instance and searched
// count) is identical at any worker count.
func TestHuntWorkerInvariance(t *testing.T) {
	type outcome struct {
		hit      bool
		instance int
		searched int
	}
	run := func(workers int) outcome {
		res, searched, err := runHunt(game.Max, 7, 8, 120, Options{Workers: workers, ShardSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{searched: searched}
		if res != nil {
			o.hit, o.instance = true, res.Instance
		}
		return o
	}
	ref := run(1)
	for _, w := range []int{2, 5} {
		if got := run(w); got != ref {
			t.Fatalf("workers=%d: outcome %+v, want %+v", w, got, ref)
		}
	}
}

func TestHuntSmallBudgetRuns(t *testing.T) {
	// A tiny hunt must terminate without finding cycles on so few
	// instances (random unit-budget networks essentially never cycle) and
	// report every instance as searched.
	res, searched := HuntUnitBudgetCycle(game.Sum, 1, 5, 200)
	if res != nil {
		t.Logf("unexpectedly found a cycle: instance %d", res.Instance)
	}
	if searched != 5 {
		t.Fatalf("searched %d instances, want the full budget of 5", searched)
	}
}
