// Package campaign is the counterexample-hunt subsystem: every
// best-response-cycle search as a task on the record spine
// (internal/spine). A campaign fans a grid of pluggable instance samplers
// (structured cycle-pendant networks, random trees, budget-k networks,
// random connected m-edge networks, the rl/dl lines) crossed with game
// variants (SUM/MAX x SG/ASG/GBG/BG) over a worker pool. Every (sampler, variant, instance) triple owns a splitmix64
// seed stream — as in internal/ensemble — and runs through the interned
// state-store explorer (cycles.SearchBestResponseCycle) under a
// per-instance state cap. Results stream to sinks as JSONL records — hits
// carry the canonical start-network encoding and the cycle trace — in
// deterministic (sampler, variant, instance) order, bit-identical at any
// worker count, with checkpoint/resume from truncated record files. The
// sequential figure sweeps of internal/search run on the same spine via
// SweepFamily.
package campaign

import (
	"fmt"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/rng"
	"ncg/internal/search"
)

// Sampler draws the start networks of one campaign axis.
type Sampler struct {
	// Name is the sampler's record key (kebab-case).
	Name string
	// Total, when positive, marks an enumerated family: instances are the
	// indices [0, Total) and degenerate instances are never resampled
	// (decoding is deterministic, so a fresh seed cannot help).
	Total int
	// Sample draws instance i on n agents from r. Self-sizing samplers
	// (the cycle-pendant family) ignore n; enumerated families receive a
	// nil r (decoding is deterministic, so no stream is derived for
	// them). A nil return is a degenerate sample: sampled instances are
	// redrawn from a fresh derived seed stream, up to the campaign's
	// resample budget.
	Sample func(n, i int, r *gen.Rand) *graph.Graph
	// CheckN validates an agent count before the campaign runs (nil: all
	// valid), turning infeasible parameter combinations into usage errors
	// instead of generator panics.
	CheckN func(n int) error
}

// Variant names one game the campaign plays on every sampled instance.
type Variant struct {
	// Name is the variant's record key (e.g. "sum-asg").
	Name string
	// New builds the game for an n-agent instance.
	New func(n int) game.Game
	// Schedule, when non-nil, must be a dynamics.Rounds value and switches
	// the variant's search from the exhaustive best-response state-graph
	// explorer to one played simultaneous-round trajectory per instance
	// (cycles.SearchRoundCycle, TieFirst, seeded by the instance stream,
	// step-capped by the campaign's MaxStates). Hits carry the witnessed
	// round cycle in the usual record fields; Record.States counts the
	// committed moves instead of interned states.
	Schedule dynamics.Scheduler
	// Oracle selects the distance oracle of round-variant trajectories
	// (zero value: auto). Landmark mode is bit-identical to exact, so
	// records never depend on the choice; the exhaustive explorer ignores
	// it (state-graph search always runs exact).
	Oracle dynamics.OracleSpec
	// Backend selects the adjacency representation of round-variant
	// trajectories (zero value: auto — sparse iff the oracle resolves to
	// landmark mode). Both backends play bit-identical trajectories, so
	// records never depend on the choice; the exhaustive explorer ignores
	// it like Oracle.
	Backend dynamics.BackendSpec
}

// Campaign is one named counterexample hunt: the sampler x variant grid,
// its per-cell instance budget and the per-instance search configuration.
// Options can override the budgets at run time.
type Campaign struct {
	// Name is recorded in every record and checked on resume.
	Name string
	// Samplers and Variants span the grid; cell order (and with it the
	// deterministic record order and the per-cell seed streams) follows
	// the slice order.
	Samplers []Sampler
	Variants []Variant
	// N is the agent count handed to the samplers (self-sizing samplers
	// ignore it).
	N int
	// Instances is the default instance budget per (sampler, variant)
	// cell; enumerated samplers are clamped to their Total.
	Instances int
	// Seed is the default base seed; every (sampler, variant, instance)
	// derives its own stream from it.
	Seed int64
	// MaxStates caps each instance's best-response state-graph search.
	MaxStates int
	// MaxResamples bounds the degenerate-sample redraws per instance
	// (0: a default budget). Redraws never consume instance budget: a
	// degenerate draw is retried with a fresh derived seed, so the
	// campaign searches exactly the instances it reports.
	MaxResamples int
	// NewCheck, when non-nil, replaces the best-response cycle search:
	// an instance is a hit iff the checker accepts it, and Moves is the
	// designated cycle recorded for accepted candidates. Each worker
	// calls NewCheck once, so the closure may own scratch space.
	NewCheck func() func(g *graph.Graph) bool
	// Moves is the designated best-response cycle of a NewCheck hit,
	// starting at the accepted candidate itself.
	Moves []game.Move
}

// defaultMaxResamples bounds degenerate redraws per instance.
const defaultMaxResamples = 32

// validate reports structural problems that would make the campaign
// unrunnable, including infeasible sampler parameters for its agent count.
func (c Campaign) validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("campaign: campaign has no name")
	case len(c.Samplers) == 0:
		return fmt.Errorf("campaign: campaign %q has no samplers", c.Name)
	case len(c.Variants) == 0:
		return fmt.Errorf("campaign: campaign %q has no game variants", c.Name)
	case c.Instances <= 0:
		return fmt.Errorf("campaign: campaign %q has no instance budget", c.Name)
	case c.NewCheck == nil && c.MaxStates <= 0:
		return fmt.Errorf("campaign: campaign %q has no per-instance state cap", c.Name)
	}
	seen := map[string]bool{}
	for _, smp := range c.Samplers {
		if smp.Name == "" || smp.Sample == nil {
			return fmt.Errorf("campaign: campaign %q has an unnamed or empty sampler", c.Name)
		}
		if seen[smp.Name] {
			return fmt.Errorf("campaign: campaign %q lists sampler %q twice", c.Name, smp.Name)
		}
		seen[smp.Name] = true
		if smp.CheckN != nil && smp.Total == 0 {
			if err := smp.CheckN(c.N); err != nil {
				return fmt.Errorf("campaign: campaign %q sampler %q: %v", c.Name, smp.Name, err)
			}
		}
	}
	seen = map[string]bool{}
	for _, v := range c.Variants {
		if v.Name == "" || v.New == nil {
			return fmt.Errorf("campaign: campaign %q has an unnamed or empty variant", c.Name)
		}
		if seen[v.Name] {
			return fmt.Errorf("campaign: campaign %q lists variant %q twice", c.Name, v.Name)
		}
		seen[v.Name] = true
	}
	return nil
}

// instanceSeed derives the seed stream of attempt a (0 = the instance's
// recorded stream; a > 0 are the degenerate-resample redraws) of instance
// inst in grid cell (si, vi).
func instanceSeed(base int64, si, vi, inst, a int) int64 {
	if a == 0 {
		return rng.Seed(base, uint64(si), uint64(vi), uint64(inst))
	}
	return rng.Seed(base, uint64(si), uint64(vi), uint64(inst), uint64(a))
}

// SampleCyclePendant draws a unit-budget network consisting of one cycle
// of length 6..13 with 2..4 pendant paths of lengths 1..6, ownership
// assigned by matching — the structured family sharing the shape of the
// Figure 5/6 constructions (Theorem 3.7). Returns nil for degenerate
// samples.
func SampleCyclePendant(r *gen.Rand) *graph.Graph {
	cycleLen := 6 + r.Intn(8)
	pendants := 2 + r.Intn(3)
	type pendant struct{ pos, length int }
	var ps []pendant
	n := cycleLen
	for i := 0; i < pendants; i++ {
		p := pendant{pos: r.Intn(cycleLen), length: 1 + r.Intn(6)}
		ps = append(ps, p)
		n += p.length
	}
	g := graph.New(n)
	for i := 0; i < cycleLen; i++ {
		g.AddEdge(i, (i+1)%cycleLen)
	}
	next := cycleLen
	for _, p := range ps {
		prev := p.pos
		for j := 0; j < p.length; j++ {
			g.AddEdge(next, prev) // pendant vertices own their edges
			prev = next
			next++
		}
	}
	if g.M() != n {
		return nil
	}
	if !search.AssignUnitOwnership(g, nil) {
		return nil
	}
	return g
}

// CyclePendantSampler is the self-sizing structured unit-budget family of
// the Theorem 3.7 hunt.
func CyclePendantSampler() Sampler {
	return Sampler{
		Name:   "cycle-pendant",
		Sample: func(_, _ int, r *gen.Rand) *graph.Graph { return SampleCyclePendant(r) },
	}
}

// TreeSampler draws uniform random labeled trees with random ownership.
func TreeSampler() Sampler {
	return Sampler{
		Name:   "random-tree",
		Sample: func(n, _ int, r *gen.Rand) *graph.Graph { return gen.RandomTree(n, r) },
	}
}

// BudgetSampler draws the Section 3.4.1 budget-k ensemble.
func BudgetSampler(k int) Sampler {
	return Sampler{
		Name:   fmt.Sprintf("budget-k%d", k),
		Sample: func(n, _ int, r *gen.Rand) *graph.Graph { return gen.BudgetNetwork(n, k, r) },
		CheckN: func(n int) error { return gen.ValidateBudget(n, k) },
	}
}

// ConnectedSampler draws random connected networks with m = mMul*n edges
// (Section 4.2.1).
func ConnectedSampler(mMul int) Sampler {
	return Sampler{
		Name:   fmt.Sprintf("random-m%dn", mMul),
		Sample: func(n, _ int, r *gen.Rand) *graph.Graph { return gen.RandomConnected(n, mMul*n, r) },
		CheckN: func(n int) error { return gen.ValidateConnected(n, mMul*n) },
	}
}

// RandomLineSampler draws the rl topology (random-ownership line) of
// Section 4.2.2.
func RandomLineSampler() Sampler {
	return Sampler{
		Name:   "random-line",
		Sample: func(n, _ int, r *gen.Rand) *graph.Graph { return gen.RandomLine(n, r) },
	}
}

// DirectedLineSampler builds the dl topology (directed line) of Section
// 4.2.2. The family is a single deterministic network per n, so it is an
// enumerated family of one instance — a campaign cell never searches the
// identical start twice.
func DirectedLineSampler() Sampler {
	return Sampler{
		Name:   "directed-line",
		Total:  1,
		Sample: func(n, _ int, _ *gen.Rand) *graph.Graph { return gen.DirectedLine(n) },
	}
}

// FamilySampler adapts an indexed candidate family (a figure sweep of
// internal/search) into an enumerated campaign sampler.
func FamilySampler(f search.Family) Sampler {
	return Sampler{
		Name:   f.Name,
		Total:  f.Total,
		Sample: func(_, i int, _ *gen.Rand) *graph.Graph { return f.At(i) },
	}
}

// BuiltinSamplers lists the named instance families of the hunt grid.
func BuiltinSamplers() []Sampler {
	return []Sampler{
		CyclePendantSampler(),
		TreeSampler(),
		BudgetSampler(2),
		BudgetSampler(3),
		ConnectedSampler(2),
		RandomLineSampler(),
		DirectedLineSampler(),
	}
}

// SamplerByName returns the built-in sampler with the given name.
func SamplerByName(name string) (Sampler, bool) {
	for _, smp := range BuiltinSamplers() {
		if smp.Name == name {
			return smp, true
		}
	}
	return Sampler{}, false
}

// BuiltinVariants lists the SUM/MAX x SG/ASG/GBG/BG grid. The buy games
// use the experiment-scale prices: alpha = n/4 for the greedy buy game and
// alpha = 2 for the exhaustive-best-response Buy Game (keep n small there).
func BuiltinVariants() []Variant {
	return []Variant{
		{Name: "sum-sg", New: func(int) game.Game { return game.NewSwap(game.Sum) }},
		{Name: "max-sg", New: func(int) game.Game { return game.NewSwap(game.Max) }},
		{Name: "sum-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }},
		{Name: "max-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Max) }},
		{Name: "sum-gbg", New: func(n int) game.Game { return game.NewGreedyBuy(game.Sum, game.NewAlpha(int64(n), 4)) }},
		{Name: "max-gbg", New: func(n int) game.Game { return game.NewGreedyBuy(game.Max, game.NewAlpha(int64(n), 4)) }},
		{Name: "sum-bg", New: func(int) game.Game { return game.NewBuy(game.Sum, game.AlphaInt(2)) }},
		{Name: "max-bg", New: func(int) game.Game { return game.NewBuy(game.Max, game.AlphaInt(2)) }},
	}
}

// RoundVariants lists the simultaneous-round hunt variants: the swap games
// played under first-writer-wins rounds, where even the SUM variants —
// sequentially convergent by potential — can oscillate. They are not part
// of BuiltinVariants (the default grids and their seed streams are
// unchanged); select them by name.
func RoundVariants() []Variant {
	rounds := dynamics.Rounds{Active: dynamics.ActiveAll, Collision: dynamics.FirstWriterWins}
	return []Variant{
		{Name: "rounds-sum-sg", New: func(int) game.Game { return game.NewSwap(game.Sum) }, Schedule: rounds},
		{Name: "rounds-max-sg", New: func(int) game.Game { return game.NewSwap(game.Max) }, Schedule: rounds},
		{Name: "rounds-sum-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }, Schedule: rounds},
		{Name: "rounds-max-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Max) }, Schedule: rounds},
	}
}

// VariantByName returns the built-in or round variant with the given name.
func VariantByName(name string) (Variant, bool) {
	for _, v := range BuiltinVariants() {
		if v.Name == name {
			return v, true
		}
	}
	for _, v := range RoundVariants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}
