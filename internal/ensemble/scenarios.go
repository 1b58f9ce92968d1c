package ensemble

import (
	"fmt"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// Built-in scenarios: the paper's figure configurations plus workloads
// spanning all five game variants. Each entry is one named combination of
// game x alpha schedule x policy x tie-break x initial-network ensemble.
// The curves of the empirical figures are defined once, by FigureSeries;
// the fig* entries are some of those curves under registry names, and
// internal/experiments runs every curve of a figure over its grid.

// grid is the default experiment-scale agent grid.
var grid = []int{10, 20, 30, 40, 50}

// smallGrid is the grid for games with exhaustive best responses (Buy,
// bilateral), where scans enumerate all strategy subsets.
var smallGrid = []int{6, 8, 10}

func budget(k int) func(n int, r *gen.Rand) *graph.Graph {
	return func(n int, r *gen.Rand) *graph.Graph { return gen.BudgetNetwork(n, k, r) }
}

// budgetCheck is the upfront grid validation of the budget-k ensembles.
func budgetCheck(k int) func(n int) error {
	return func(n int) error { return gen.ValidateBudget(n, k) }
}

func randomConn(mMul int) func(n int, r *gen.Rand) *graph.Graph {
	return func(n int, r *gen.Rand) *graph.Graph { return gen.RandomConnected(n, mMul*n, r) }
}

// randomConnCheck is the upfront grid validation of the m = mMul*n
// ensembles.
func randomConnCheck(mMul int) func(n int) error {
	return func(n int) error { return gen.ValidateConnected(n, mMul*n) }
}

func randomTree(n int, r *gen.Rand) *graph.Graph { return gen.RandomTree(n, r) }

func randomLine(n int, r *gen.Rand) *graph.Graph { return gen.RandomLine(n, r) }

func directedLine(n int, r *gen.Rand) *graph.Graph { return gen.DirectedLine(n) }

// gbg builds a Greedy Buy Game with alpha = n/den.
func gbg(kind game.DistKind, den int64) func(n int) game.Game {
	return func(n int) game.Game { return game.NewGreedyBuy(kind, game.NewAlpha(int64(n), den)) }
}

// FigureSeries returns the title and the curves of the numbered empirical
// figure (7, 8, 11-14; Sections 3.4 and 4.2 of the full version) in
// plotting order: every curve under the max cost policy, then every curve
// under the random policy. Each curve is an unregistered scenario named
// after its legend entry ("k=2 max cost", "m=1n a=n/4 random",
// "rl a=n/2 max cost"), with the registry's default grid, trials and seed
// and, where its ensemble has one, the grid check that rejects infeasible
// agent counts.
func FigureSeries(num int) (string, []Scenario, error) {
	kind := game.Max
	if num == 7 || num == 11 || num == 12 {
		kind = game.Sum
	}
	// priced adds one Greedy Buy curve per edge price alpha = n/den to
	// the curves of one start.
	var curves []Scenario
	priced := func(start Scenario, dens ...int64) {
		for _, den := range dens {
			c := start
			c.Name += " a=n"
			if den > 1 {
				c.Name += fmt.Sprintf("/%d", den)
			}
			c.Family, c.NewGame = FamilyGreedyBuy, gbg(kind, den)
			curves = append(curves, c)
		}
	}
	var title string
	switch num {
	case 7, 8:
		// Section 3.4: the bounded-budget ASG.
		title = fmt.Sprintf("Figure %d: %s-ASG, budget k", num, kind)
		for _, k := range []int{1, 2, 3, 4, 5, 6, 10} {
			curves = append(curves, Scenario{
				Name:       fmt.Sprintf("k=%d", k),
				Family:     FamilyAsymSwap,
				NewGame:    func(int) game.Game { return game.NewAsymSwap(kind) },
				NewInitial: budget(k),
				CheckN:     budgetCheck(k),
			})
		}
	case 11, 13:
		// Section 4.2.1: the GBG from random connected m = n and m = 4n
		// networks.
		title = fmt.Sprintf("Figure %d: %s-GBG", num, kind)
		for _, m := range []int{1, 4} {
			priced(Scenario{Name: fmt.Sprintf("m=%dn", m), NewInitial: randomConn(m), CheckN: randomConnCheck(m)}, 10, 4, 1)
		}
	case 12, 14:
		// Section 4.2.2: the GBG from a random m = n network, the
		// random-ownership line and the directed line.
		title = fmt.Sprintf("Figure %d: %s-GBG topologies", num, kind)
		priced(Scenario{Name: "random", NewInitial: randomConn(1), CheckN: randomConnCheck(1)}, 10, 4, 2, 1)
		priced(Scenario{Name: "rl", NewInitial: randomLine}, 10, 4, 2, 1)
		priced(Scenario{Name: "dl", NewInitial: directedLine}, 10, 4, 2, 1)
	default:
		return "", nil, fmt.Errorf("ensemble: no empirical figure %d (the empirical figures are 7, 8 and 11-14)", num)
	}
	var out []Scenario
	for _, pol := range []PolicyKind{MaxCost, Random} {
		for _, c := range curves {
			c.Name += " " + pol.String()
			c.Policy, c.Ns, c.Trials, c.Seed = pol, grid, 60, 1
			out = append(out, c)
		}
	}
	return title, out, nil
}

// mustRegisterFigure registers the curve of figure num with the given
// legend entry under a registry name.
func mustRegisterFigure(num int, curve, name, description string) {
	_, scs, err := FigureSeries(num)
	if err != nil {
		panic(err)
	}
	for _, sc := range scs {
		if sc.Name == curve {
			sc.Name, sc.Description = name, description
			mustRegister(sc)
			return
		}
	}
	panic(fmt.Sprintf("ensemble: figure %d has no curve %q", num, curve))
}

func init() {
	// Swap Game (Alon et al.): either endpoint may swap an edge.
	mustRegister(Scenario{
		Name:        "fig1-sg-max-path",
		Description: "MAX-SG on the path, max cost policy with deterministic ties (Figure 1 / Theorem 2.11 trace)",
		Family:      FamilySwap,
		NewGame:     func(int) game.Game { return game.NewSwap(game.Max) },
		NewInitial:  directedLine,
		Policy:      MaxCostDeterministic,
		Tie:         dynamics.TieFirst,
		Ns:          []int{16, 32, 64, 128},
		Trials:      1,
		Seed:        1,
	})
	mustRegister(Scenario{
		Name:        "sg-sum-budget-k3",
		Description: "SUM-SG on the budget-3 ensemble, max cost policy",
		Family:      FamilySwap,
		NewGame:     func(int) game.Game { return game.NewSwap(game.Sum) },
		NewInitial:  budget(3),
		CheckN:      budgetCheck(3),
		Policy:      MaxCost,
		Ns:          grid,
		Trials:      60,
		Seed:        1,
	})
	mustRegister(Scenario{
		Name:        "sg-max-budget-k3",
		Description: "MAX-SG on the budget-3 ensemble, random policy",
		Family:      FamilySwap,
		NewGame:     func(int) game.Game { return game.NewSwap(game.Max) },
		NewInitial:  budget(3),
		CheckN:      budgetCheck(3),
		Policy:      Random,
		Ns:          grid,
		Trials:      60,
		Seed:        1,
	})

	// Asymmetric Swap Game (Mihalák & Schlegel): owner-only swaps.
	mustRegisterFigure(7, "k=2 max cost", "fig7-asg-sum-k2",
		"SUM-ASG on the budget-2 ensemble, max cost policy (Figure 7, k=2 series)")
	mustRegisterFigure(7, "k=2 random", "fig7-asg-sum-k2-random",
		"SUM-ASG on the budget-2 ensemble, random policy (Figure 7, k=2 series)")
	mustRegisterFigure(8, "k=2 max cost", "fig8-asg-max-k2",
		"MAX-ASG on the budget-2 ensemble, max cost policy (Figure 8, k=2 series)")
	mustRegister(Scenario{
		Name:        "asg-sum-tree",
		Description: "SUM-ASG on uniform random trees, max cost policy (tree convergence regime)",
		Family:      FamilyAsymSwap,
		NewGame:     func(int) game.Game { return game.NewAsymSwap(game.Sum) },
		NewInitial:  randomTree,
		Policy:      MaxCost,
		Ns:          grid,
		Trials:      60,
		Seed:        1,
	})

	// Greedy Buy Game: buy, delete or swap one edge.
	mustRegisterFigure(11, "m=1n a=n/4 max cost", "fig11-gbg-sum-a4",
		"SUM-GBG on random connected m=n networks, alpha=n/4, max cost policy (Figure 11 series)")
	mustRegisterFigure(12, "rl a=n/2 max cost", "fig12-gbg-sum-rl-a2",
		"SUM-GBG from the random-ownership line, alpha=n/2, max cost policy (Figure 12 series)")
	mustRegisterFigure(13, "m=1n a=n/4 max cost", "fig13-gbg-max-a4",
		"MAX-GBG on random connected m=n networks, alpha=n/4, max cost policy (Figure 13 series)")
	mustRegisterFigure(14, "dl a=n/2 random", "fig14-gbg-max-dl-a2",
		"MAX-GBG from the directed line, alpha=n/2, random policy (Figure 14 series)")
	mustRegister(Scenario{
		Name:        "gbg-sum-dense-an",
		Description: "SUM-GBG on dense m=4n networks at alpha=n, random policy (deletion-phase workload, Section 4.2.2)",
		Family:      FamilyGreedyBuy,
		NewGame:     gbg(game.Sum, 1),
		NewInitial:  randomConn(4),
		CheckN:      randomConnCheck(4),
		Policy:      Random,
		Ns:          grid,
		Trials:      60,
		Seed:        1,
	})

	// Buy Game (Fabrikant et al.): exhaustive best responses, small n.
	mustRegister(Scenario{
		Name:         "bg-sum-tree-a2",
		Description:  "SUM-BG at alpha=2 from uniform random trees, random policy (exhaustive best responses)",
		Family:       FamilyBuy,
		NewGame:      func(int) game.Game { return game.NewBuy(game.Sum, game.AlphaInt(2)) },
		NewInitial:   randomTree,
		Policy:       Random,
		Ns:           smallGrid,
		Trials:       20,
		Seed:         1,
		MaxSteps:     400,
		DetectCycles: true,
	})
	mustRegister(Scenario{
		Name:         "bg-max-tree-a2",
		Description:  "MAX-BG at alpha=2 from uniform random trees, max cost policy (exhaustive best responses)",
		Family:       FamilyBuy,
		NewGame:      func(int) game.Game { return game.NewBuy(game.Max, game.AlphaInt(2)) },
		NewInitial:   randomTree,
		Policy:       MaxCost,
		Ns:           smallGrid,
		Trials:       20,
		Seed:         1,
		MaxSteps:     400,
		DetectCycles: true,
	})

	// Simultaneous-move rounds: every unhappy agent best-responds against
	// the round's opening snapshot, colliding commits resolved
	// first-writer-wins. Even SUM variants with a sequential potential can
	// oscillate here, so all four detect cycles and cap their steps.
	mustRegister(Scenario{
		Name:         "rounds-sg-sum-budget-k3",
		Description:  "SUM-SG on the budget-3 ensemble under simultaneous rounds (first-writer-wins)",
		Family:       FamilySwap,
		NewGame:      func(int) game.Game { return game.NewSwap(game.Sum) },
		NewInitial:   budget(3),
		CheckN:       budgetCheck(3),
		Ns:           grid,
		Trials:       60,
		Seed:         1,
		MaxSteps:     4000,
		DetectCycles: true,
		Schedule:     dynamics.Rounds{Active: dynamics.ActiveAll, Collision: dynamics.FirstWriterWins},
	})
	mustRegister(Scenario{
		Name:         "rounds-sg-max-budget-k3",
		Description:  "MAX-SG on the budget-3 ensemble under shuffled simultaneous rounds",
		Family:       FamilySwap,
		NewGame:      func(int) game.Game { return game.NewSwap(game.Max) },
		NewInitial:   budget(3),
		CheckN:       budgetCheck(3),
		Ns:           grid,
		Trials:       60,
		Seed:         1,
		MaxSteps:     4000,
		DetectCycles: true,
		Schedule:     dynamics.Rounds{Active: dynamics.ActiveShuffled, Collision: dynamics.FirstWriterWins},
	})
	mustRegister(Scenario{
		Name:         "rounds-asg-sum-k2",
		Description:  "SUM-ASG on the budget-2 ensemble under simultaneous rounds (first-writer-wins)",
		Family:       FamilyAsymSwap,
		NewGame:      func(int) game.Game { return game.NewAsymSwap(game.Sum) },
		NewInitial:   budget(2),
		CheckN:       budgetCheck(2),
		Ns:           grid,
		Trials:       60,
		Seed:         1,
		MaxSteps:     4000,
		DetectCycles: true,
		Schedule:     dynamics.Rounds{Active: dynamics.ActiveAll, Collision: dynamics.FirstWriterWins},
	})
	mustRegister(Scenario{
		Name:         "rounds-asg-max-k2",
		Description:  "MAX-ASG on the budget-2 ensemble under simultaneous rounds (skip-on-conflict)",
		Family:       FamilyAsymSwap,
		NewGame:      func(int) game.Game { return game.NewAsymSwap(game.Max) },
		NewInitial:   budget(2),
		CheckN:       budgetCheck(2),
		Ns:           grid,
		Trials:       60,
		Seed:         1,
		MaxSteps:     4000,
		DetectCycles: true,
		Schedule:     dynamics.Rounds{Active: dynamics.ActiveAll, Collision: dynamics.SkipOnConflict},
	})

	// Bilateral equal-split Buy Game (Corbo & Parkes): both endpoints
	// consent and share the edge price.
	mustRegister(Scenario{
		Name:         "bilateral-sum-tree",
		Description:  "SUM bilateral game at alpha=3/2 from uniform random trees, max cost policy",
		Family:       FamilyBilateral,
		NewGame:      func(int) game.Game { return game.NewBilateral(game.Sum, game.NewAlpha(3, 2)) },
		NewInitial:   randomTree,
		Policy:       MaxCost,
		Ns:           smallGrid,
		Trials:       20,
		Seed:         1,
		MaxSteps:     400,
		DetectCycles: true,
	})
	mustRegister(Scenario{
		Name:         "bilateral-max-line",
		Description:  "MAX bilateral game at alpha=2 from the random-ownership line, random policy",
		Family:       FamilyBilateral,
		NewGame:      func(int) game.Game { return game.NewBilateral(game.Max, game.AlphaInt(2)) },
		NewInitial:   randomLine,
		Policy:       Random,
		Ns:           smallGrid,
		Trials:       20,
		Seed:         1,
		MaxSteps:     400,
		DetectCycles: true,
	})
}
