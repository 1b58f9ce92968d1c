// Package dynamics implements the sequential-move network creation process
// of Kawald & Lenzner (SPAA'13, Section 1.1): starting from an initial
// network, a move policy repeatedly selects an unhappy agent who then plays
// a best possible improving move, until either a stable network (a pure
// Nash equilibrium of the underlying game) is reached or a step limit or
// revisited state reveals non-convergence.
package dynamics

import (
	"cmp"
	"math/rand"
	"slices"

	"ncg/internal/game"
	"ncg/internal/graph"
)

// Policy selects the moving agent in each state of the process. It only
// chooses who moves, never which move is played (Section 1.1: "we do not
// consider such strong policies").
type Policy interface {
	Name() string
	// Pick returns the moving agent for state g, or -1 if no agent is
	// unhappy (the process has converged). Implementations must certify
	// convergence before returning -1.
	Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int
}

// enginePolicy is implemented by the built-in policies that can exploit a
// process engine: costs are then served from the incremental distance
// cache and happiness probes fan out over the engine's worker pool. Both
// accelerations are exact, so pickEngine returns the same agent as Pick
// and consumes the RNG identically.
type enginePolicy interface {
	pickEngine(e *engine, r *rand.Rand) int
}

// MaxCost is the max cost policy: agents are examined in order of
// descending current cost and the first unhappy one moves. Ties between
// equal-cost agents are broken uniformly at random, matching the
// experimental setup of Section 3.4.1.
type MaxCost struct{}

func (MaxCost) Name() string { return "max cost" }

// costedAgent pairs an agent with its cost and random tie key for the max
// cost orderings.
type costedAgent struct {
	u    int
	c    game.Cost
	tieR int64
}

// maxCostOrder returns the agents sorted by descending cost with random
// tie order (n Int63 draws, one per agent, in index order). agents and ord,
// when non-nil with capacity n, back the computation without allocating —
// the engine path passes its per-run buffers.
func maxCostOrder(n int, cost func(u int) game.Cost, alpha game.Alpha, r *rand.Rand, agents []costedAgent, ord []int) []int {
	if cap(agents) < n {
		agents = make([]costedAgent, n)
	}
	agents = agents[:n]
	for u := 0; u < n; u++ {
		agents[u] = costedAgent{u: u, c: cost(u)}
		if r != nil {
			agents[u].tieR = r.Int63()
		}
	}
	// Descending cost, then descending tie key; the stable sort keeps
	// index order among equal keys (all ties when r is nil).
	slices.SortStableFunc(agents, func(a, b costedAgent) int {
		if c := b.c.Cmp(a.c, alpha); c != 0 {
			return c
		}
		return cmp.Compare(b.tieR, a.tieR)
	})
	if cap(ord) < n {
		ord = make([]int, n)
	}
	order := ord[:n]
	for i, a := range agents {
		order[i] = a.u
	}
	return order
}

func (MaxCost) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	order := maxCostOrder(g.N(), func(u int) game.Cost { return gm.Cost(g, u, s) }, gm.Alpha(), r, nil, nil)
	for _, u := range order {
		if gm.HasImproving(g, u, s) {
			return u
		}
	}
	return -1
}

func (MaxCost) pickEngine(e *engine, r *rand.Rand) int {
	n := e.g.N()
	if cap(e.agents) < n {
		e.agents = make([]costedAgent, n)
	}
	if cap(e.ord) < n {
		e.ord = make([]int, n)
	}
	order := maxCostOrder(n, e.cost, e.gm.Alpha(), r, e.agents[:n], e.ord[:n])
	return e.firstUnhappy(order)
}

// MaxCostDeterministic is the max cost policy with deterministic
// tie-breaking: among maximum-cost agents the one with the smallest index
// moves. This is the rule used in the lower-bound trace of Theorem 2.11 and
// Figure 1.
type MaxCostDeterministic struct{}

func (MaxCostDeterministic) Name() string { return "max cost (smallest index)" }

// maxCostOrderDeterministic returns the agents sorted by descending cost,
// index order on ties; costsBuf and ord optionally back the computation.
func maxCostOrderDeterministic(n int, cost func(u int) game.Cost, alpha game.Alpha, costsBuf []game.Cost, ord []int) []int {
	if cap(costsBuf) < n {
		costsBuf = make([]game.Cost, n)
	}
	costs := costsBuf[:n]
	if cap(ord) < n {
		ord = make([]int, n)
	}
	order := ord[:n]
	for u := 0; u < n; u++ {
		costs[u] = cost(u)
		order[u] = u
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := costs[b].Cmp(costs[a], alpha); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

func (MaxCostDeterministic) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	order := maxCostOrderDeterministic(g.N(), func(u int) game.Cost { return gm.Cost(g, u, s) }, gm.Alpha(), nil, nil)
	for _, u := range order {
		if gm.HasImproving(g, u, s) {
			return u
		}
	}
	return -1
}

func (MaxCostDeterministic) pickEngine(e *engine, r *rand.Rand) int {
	n := e.g.N()
	if cap(e.costs) < n {
		e.costs = make([]game.Cost, n)
	}
	if cap(e.ord) < n {
		e.ord = make([]int, n)
	}
	order := maxCostOrderDeterministic(n, e.cost, e.gm.Alpha(), e.costs[:n], e.ord[:n])
	return e.firstUnhappy(order)
}

// Random is the random policy of Section 3.4.1: one agent is chosen
// uniformly at random; if she is happy she is removed from the candidate
// set and another is drawn, until an unhappy agent is found or no candidate
// remains.
//
// Random has no engine fast path on purpose: the number of RNG draws it
// consumes depends on how many probes fail, so speculative parallel
// probing would shift the RNG stream and change seeded traces.
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	n := g.N()
	cands := make([]int, n)
	for i := range cands {
		cands[i] = i
	}
	for len(cands) > 0 {
		i := 0
		if r != nil {
			i = r.Intn(len(cands))
		}
		u := cands[i]
		if gm.HasImproving(g, u, s) {
			return u
		}
		cands[i] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return -1
}

// MinIndex picks the unhappy agent with the smallest index; useful for
// deterministic unit tests.
type MinIndex struct{}

func (MinIndex) Name() string { return "min index" }

func (MinIndex) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	for u := 0; u < g.N(); u++ {
		if gm.HasImproving(g, u, s) {
			return u
		}
	}
	return -1
}

func (MinIndex) pickEngine(e *engine, r *rand.Rand) int {
	n := e.g.N()
	if cap(e.ord) < n {
		e.ord = make([]int, n)
	}
	order := e.ord[:n]
	for u := range order {
		order[u] = u
	}
	return e.firstUnhappy(order)
}

// Adversarial wraps a caller-supplied selection function receiving the set
// of unhappy agents; it models the adversary of the negative results ("an
// adversary chooses the worst possible moving agent").
type Adversarial struct {
	// Choose returns the moving agent given the unhappy set (non-empty).
	Choose func(g graph.Store, unhappy []int) int
}

func (Adversarial) Name() string { return "adversarial" }

func (a Adversarial) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	var unhappy []int
	for u := 0; u < g.N(); u++ {
		if gm.HasImproving(g, u, s) {
			unhappy = append(unhappy, u)
		}
	}
	if len(unhappy) == 0 {
		return -1
	}
	return a.Choose(g, unhappy)
}

func (a Adversarial) pickEngine(e *engine, r *rand.Rand) int {
	unhappy := e.unhappy(nil)
	if len(unhappy) == 0 {
		return -1
	}
	return a.Choose(e.g, unhappy)
}

// Unhappy returns the set of unhappy agents of g under gm (U_i of Section
// 1.1).
func Unhappy(g graph.Store, gm game.Game, s *game.Scratch) []int {
	var us []int
	for u := 0; u < g.N(); u++ {
		if gm.HasImproving(g, u, s) {
			us = append(us, u)
		}
	}
	return us
}
