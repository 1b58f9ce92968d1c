package search

import (
	"ncg/internal/game"
	"ncg/internal/graph"
)

// Family is an indexed deterministic candidate family together with its
// acceptance check and the designated best-response cycle an accepted
// candidate realizes. It is the unit the campaign spine shards figure
// sweeps over: indices decode independently (At), checks run on one
// worker-owned closure each (NewCheck), and survivors in index order are
// exactly what a sequential run of the same check over the same indices
// keeps (Fig6CandidatesMinimal and Fig10Candidates for their families).
type Family struct {
	// Name identifies the family in campaign records.
	Name string
	// N is the agent count of every candidate.
	N int
	// Total is the size of the index space; every instance in [0, Total)
	// decodes via At.
	Total int
	// At decodes index i into a candidate, or nil when the index does not
	// assemble into a valid candidate. It must be safe for concurrent use.
	At func(i int) *graph.Graph
	// NewGame builds the family's game (the one its cycle plays in).
	NewGame func(n int) game.Game
	// NewCheck returns a fresh acceptance checker with its own scratch;
	// each worker of a sharded sweep calls it once.
	NewCheck func() func(g *graph.Graph) bool
	// Moves is the designated best-response cycle of an accepted
	// candidate, starting from the candidate itself.
	Moves []game.Move
}

// fig5Specs builds the sixteen shape combinations of the Figure 5 family
// in nested order (A outermost, D innermost).
func fig5Specs() []*AssembleSpec {
	var specs []*AssembleSpec
	for _, a := range []GroupShape{Chain, StarShape} {
		for _, b := range []GroupShape{Chain, StarShape} {
			for _, c := range []GroupShape{Chain, StarShape} {
				for _, d := range []GroupShape{Chain, StarShape} {
					specs = append(specs, Fig5Spec{a, b, c, d}.assembleSpec(0, nil))
				}
			}
		}
	}
	return specs
}

// specsFamily flattens a spec list (sharing one index space, spec 0 first)
// into a Family.
func specsFamily(name string, n int, specs []*AssembleSpec, gm func(n int) game.Game,
	check func() func(g *graph.Graph) bool, moves []game.Move) Family {
	per := specs[0].Total()
	return Family{
		Name:  name,
		N:     n,
		Total: per * len(specs),
		At: func(i int) *graph.Graph {
			return specs[i/per].At(i % per)
		},
		NewGame:  gm,
		NewCheck: check,
		Moves:    moves,
	}
}

// Fig5Family is the strict Figure 5 sweep (SUM-ASG, 19 agents, every prose
// fact of the proof, see fig5Check) as an indexed family.
func Fig5Family() Family {
	return specsFamily("fig5-sum-asg", 19, fig5Specs(),
		func(int) game.Game { return game.NewAsymSwap(game.Sum) },
		func() func(g *graph.Graph) bool {
			gm := game.NewAsymSwap(game.Sum)
			s := game.NewScratch(19)
			return func(g *graph.Graph) bool { return fig5Check(g, gm, s) }
		},
		fig5Moves())
}

// Fig5MinimalFamily relaxes the Figure 5 sweep to the bare theorem
// requirements: the four designated moves are best responses and the
// trajectory closes (figCycleMinimal).
func Fig5MinimalFamily() Family {
	return specsFamily("fig5-sum-asg-minimal", 19, fig5Specs(),
		func(int) game.Game { return game.NewAsymSwap(game.Sum) },
		func() func(g *graph.Graph) bool {
			gm := game.NewAsymSwap(game.Sum)
			s := game.NewScratch(19)
			moves := fig5Moves()
			return func(g *graph.Graph) bool { return figCycleMinimal(g, gm, s, moves) }
		},
		fig5Moves())
}

// Fig6Family is the strict Figure 6 sweep (MAX-ASG, 20 agents, see
// fig6Check) under the given filter options.
func Fig6Family(opt Fig6Options) Family {
	spec := fig6AssembleSpec(0, nil)
	return Family{
		Name:  "fig6-max-asg",
		N:     20,
		Total: spec.Total(),
		At:    spec.At,
		NewGame: func(int) game.Game {
			return game.NewAsymSwap(game.Max)
		},
		NewCheck: func() func(g *graph.Graph) bool {
			gm := game.NewAsymSwap(game.Max)
			s := game.NewScratch(20)
			return func(g *graph.Graph) bool { return fig6Check(g, gm, s, opt) }
		},
		Moves: fig6Moves(),
	}
}

// Fig6MinimalFamily relaxes the Figure 6 sweep to the bare theorem
// requirements, matching Fig6CandidatesMinimal (the search that pins the
// repository's Figure 6 instance).
func Fig6MinimalFamily() Family {
	spec := fig6AssembleSpec(0, nil)
	return Family{
		Name:  "fig6-max-asg-minimal",
		N:     20,
		Total: spec.Total(),
		At:    spec.At,
		NewGame: func(int) game.Game {
			return game.NewAsymSwap(game.Max)
		},
		NewCheck: func() func(g *graph.Graph) bool {
			gm := game.NewAsymSwap(game.Max)
			s := game.NewScratch(20)
			moves := fig6Moves()
			return func(g *graph.Graph) bool { return figCycleMinimal(g, gm, s, moves) }
		},
		Moves: fig6Moves(),
	}
}

// Fig10Family is the Figure 10 tree sweep (MAX Buy Game, 8 agents, all
// labeled trees via Prüfer indices), matching Fig10Candidates without the
// unicyclic augmentations (tree bases exist, so the augmentations are not
// needed to witness the theorem).
func Fig10Family() Family {
	return Family{
		Name:  "fig10-max-bg",
		N:     8,
		Total: fig10Total,
		At:    fig10At,
		NewGame: func(int) game.Game {
			return game.NewBuy(game.Max, Fig10Alpha)
		},
		NewCheck: func() func(g *graph.Graph) bool {
			gm := game.NewBuy(game.Max, Fig10Alpha)
			s := game.NewScratch(8)
			return func(g *graph.Graph) bool { return fig10Check(g, gm, s) }
		},
		Moves: []game.Move{
			{Agent: f10g, Add: []int{f10a}},
			{Agent: f10e, Add: []int{f10a}},
			{Agent: f10g, Drop: []int{f10a}},
			{Agent: f10e, Drop: []int{f10a}},
		},
	}
}
