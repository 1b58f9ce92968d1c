package campaign

import (
	"fmt"

	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/graph"
)

// HuntResult is a best-response cycle found on a unit-budget network.
type HuntResult struct {
	// Start is the sampled initial network (every agent owns one edge).
	Start *graph.Graph
	// Cycle is a reachable best-response cycle.
	Cycle *cycles.FoundCycle
	// Instance is the sample index the network was derived from.
	Instance int
}

// HuntUnitBudgetCycle is the structured hunt for unit-budget best-response
// cycles (Theorem 3.7 / Section 3.3). Uniformly random unit-budget
// networks essentially never cycle, but the constructions of Figures 5
// and 6 share a shape: one long cycle with pendant paths. The hunt
// searches up to maxInstances networks of that family for the given ASG
// distance kind and returns the first one whose best-response state graph
// (capped at stateCap states per instance) contains a cycle, or nil, with
// the number of instances searched. Degenerate samples are redrawn, never
// counted. It is a one-cell campaign with MaxHits 1, so the result is
// bit-identical at any worker count.
func HuntUnitBudgetCycle(kind game.DistKind, seed int64, maxInstances, stateCap int) (*HuntResult, int) {
	res, searched, err := runHunt(kind, seed, maxInstances, stateCap, Options{})
	if err != nil {
		// The fixed hunt grid is always valid; an error here is an
		// internal invariant violation.
		panic(fmt.Sprintf("campaign: unit-budget hunt: %v", err))
	}
	return res, searched
}

// runHunt executes the hunt campaign; opt carries execution shape only
// (workers, shard size) — the search grid comes from the arguments.
func runHunt(kind game.DistKind, seed int64, maxInstances, stateCap int, opt Options) (*HuntResult, int, error) {
	variant := "sum-asg"
	if kind == game.Max {
		variant = "max-asg"
	}
	c := Campaign{
		Name:      "hunt-unit-budget",
		Samplers:  []Sampler{CyclePendantSampler()},
		Variants:  []Variant{{Name: variant, New: func(int) game.Game { return game.NewAsymSwap(kind) }}},
		Instances: maxInstances,
		Seed:      seed,
		MaxStates: stateCap,
	}
	opt.MaxHits = 1
	var hit *Record
	sum, err := Run(c, opt, FuncSink(func(rec Record) error {
		if rec.Hit { // the only hit: MaxHits cuts the stream after it
			hit = &rec
		}
		return nil
	}))
	if err != nil {
		return nil, 0, err
	}
	if hit == nil {
		return nil, sum.Searched, nil
	}
	start, err := hit.DecodeStart()
	if err != nil {
		return nil, sum.Searched, err
	}
	fc, err := hit.DecodeCycle()
	if err != nil {
		return nil, sum.Searched, err
	}
	return &HuntResult{Start: start, Cycle: fc, Instance: hit.Instance}, sum.Searched, nil
}
