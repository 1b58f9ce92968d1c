// Package dynamics implements the sequential-move network creation process
// of Kawald & Lenzner (SPAA'13, Section 1.1): starting from an initial
// network, a move policy repeatedly selects an unhappy agent who then plays
// a best possible improving move, until either a stable network (a pure
// Nash equilibrium of the underlying game) is reached or a step limit or
// revisited state reveals non-convergence.
package dynamics

import (
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

// enginePolicy is implemented by every built-in policy. pickEngine picks
// on a process engine, whose cost reads may come from the incremental
// distance cache and whose happiness probes may fan out over a worker
// pool; both accelerations are exact. Each built-in Pick is pickEngine on
// a bare engine over the caller's scratch (see bare), so the two agree by
// construction and consume the RNG identically.
type enginePolicy interface {
	pickEngine(e *engine, r *rand.Rand) int
}

// MaxCost is the max cost policy: agents are examined in order of
// descending current cost and the first unhappy one moves. Ties between
// equal-cost agents are broken uniformly at random, matching the
// experimental setup of Section 3.4.1: before any probe, one Int63 tie key
// is drawn per agent, in index order (none when r is nil), and equal costs
// go to the larger key, then to the smaller index. The order is popped
// lazily (see costOrder), so a step pays for sorting only the agents it
// probes.
type MaxCost struct{}

func (MaxCost) Name() string { return "max cost" }

func (MaxCost) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return MaxCost{}.pickEngine(bare(g, gm, s), r)
}

func (MaxCost) pickEngine(e *engine, r *rand.Rand) int {
	e.order.reset(e.g.N(), e.cost, e.gm.Alpha(), r)
	return e.firstUnhappy(e.order.pop)
}

// MaxCostDeterministic is the max cost policy with deterministic
// tie-breaking: among maximum-cost agents the one with the smallest index
// moves. This is the rule used in the lower-bound trace of Theorem 2.11 and
// Figure 1. It is MaxCost without tie keys, and draws nothing from r.
type MaxCostDeterministic struct{}

func (MaxCostDeterministic) Name() string { return "max cost (smallest index)" }

func (MaxCostDeterministic) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return MaxCost{}.Pick(g, gm, s, nil)
}

func (MaxCostDeterministic) pickEngine(e *engine, r *rand.Rand) int {
	return MaxCost{}.pickEngine(e, nil)
}

// costOrder is the max cost policies' probe order: agents by descending
// cost, then descending tie key, then ascending index. That order is strict
// and total, so popping a binary heap under it yields exactly the sequence
// a stable sort by cost and key would: heapifying costs O(n) comparisons
// and each pop O(log n), so a step whose first probe finds the mover never
// orders the other agents, and a run that converges pops all n in
// O(n log n). The buffers are reused across resets.
type costOrder struct {
	alpha game.Alpha
	cost  []game.Cost
	// key holds the tie keys; it is empty when ties go to the smaller
	// index.
	key  []int64
	heap []int32
}

// reset reads the n agents' costs, draws their tie keys from r in index
// order when r is non-nil, and heapifies.
func (o *costOrder) reset(n int, cost func(u int) game.Cost, alpha game.Alpha, r *rand.Rand) {
	o.alpha = alpha
	o.cost = slices.Grow(o.cost[:0], n)[:n]
	o.heap = slices.Grow(o.heap[:0], n)[:n]
	o.key = o.key[:0]
	if r != nil {
		o.key = slices.Grow(o.key, n)[:n]
	}
	for u := 0; u < n; u++ {
		o.cost[u] = cost(u)
		if r != nil {
			o.key[u] = r.Int63()
		}
		o.heap[u] = int32(u)
	}
	for i := n/2 - 1; i >= 0; i-- {
		o.down(i)
	}
}

// before reports whether agent a comes before agent b.
func (o *costOrder) before(a, b int32) bool {
	if c := o.cost[a].Cmp(o.cost[b], o.alpha); c != 0 {
		return c > 0
	}
	if len(o.key) > 0 && o.key[a] != o.key[b] {
		return o.key[a] > o.key[b]
	}
	return a < b
}

// down sifts the agent at heap position i down to its place.
func (o *costOrder) down(i int) {
	h := o.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && o.before(h[c+1], h[c]) {
			c++
		}
		if !o.before(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pop removes and returns the next agent of the order, or -1 once every
// agent has been popped.
func (o *costOrder) pop() int {
	last := len(o.heap) - 1
	if last < 0 {
		return -1
	}
	u := o.heap[0]
	o.heap[0] = o.heap[last]
	o.heap = o.heap[:last]
	if last > 0 {
		o.down(0)
	}
	return int(u)
}

// Random is the random policy of Section 3.4.1: one agent is chosen
// uniformly at random; if she is happy she is removed from the candidate
// set and another is drawn, until an unhappy agent is found or no candidate
// remains.
//
// Random probes serially on the engine's primary scratch at every worker
// count: the number of RNG draws it consumes depends on how many probes
// fail, so speculative parallel probing would shift the RNG stream and
// change seeded traces. The candidate set lives in an engine-owned buffer.
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return Random{}.pickEngine(bare(g, gm, s), r)
}

func (Random) pickEngine(e *engine, r *rand.Rand) int {
	n := e.g.N()
	cands := slices.Grow(e.cands[:0], n)[:n]
	e.cands = cands
	for i := range cands {
		cands[i] = i
	}
	s := e.scratch()
	for len(cands) > 0 {
		i := 0
		if r != nil {
			i = r.Intn(len(cands))
		}
		u := cands[i]
		if e.gm.HasImproving(e.g, u, s) {
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
	return MinIndex{}.pickEngine(bare(g, gm, s), r)
}

func (MinIndex) pickEngine(e *engine, r *rand.Rand) int {
	u, n := -1, e.g.N()
	return e.firstUnhappy(func() int {
		if u++; u < n {
			return u
		}
		return -1
	})
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
	return a.pickEngine(bare(g, gm, s), r)
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
	return bare(g, gm, s).unhappy(nil)
}
