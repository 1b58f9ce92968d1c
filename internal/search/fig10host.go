package search

import (
	"ncg/internal/game"
	"ncg/internal/graph"
)

// Fig10HostGraph returns the Corollary 4.2 (MAX) host graph for a base:
// the base network plus the edges {a,g} and {a,e}.
func Fig10HostGraph(base *graph.Graph) *graph.Graph {
	h := base.Clone()
	h.AddEdge(f10a, f10g)
	h.AddEdge(f10a, f10e)
	return h
}

// fig10Moves is the designated 4-step cycle.
func fig10Moves() []game.Move {
	return []game.Move{
		{Agent: f10g, Add: []int{f10a}},
		{Agent: f10e, Add: []int{f10a}},
		{Agent: f10g, Drop: []int{f10a}},
		{Agent: f10e, Drop: []int{f10a}},
	}
}

// Fig10HostCandidates filters Fig10Candidates down to bases that also
// witness Corollary 4.2 (MAX) on the host graph base + {ag, ae}: in every
// state of the cycle, exactly one agent is unhappy (the designated mover)
// and she has exactly one improving move (the designated one), in both the
// Greedy Buy Game and the unrestricted Buy Game. For such bases the
// improving-move dynamics are fully forced, so no sequence of improving
// moves can ever stabilize.
// Ownership of base edges not incident to e or g is a free parameter of
// the reconstruction (the proof never constrains it), so every assignment
// is tried.
func Fig10HostCandidates(unicyclic bool, limit int) []*graph.Graph {
	var out []*graph.Graph
	for _, base := range Fig10Candidates(unicyclic, 0) {
		for _, owned := range ownershipVariants(base, []int{f10e, f10g}) {
			if fig10HostCheck(owned) {
				out = append(out, owned)
				break // one ownership witness per base suffices
			}
		}
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// ownershipVariants enumerates every ownership assignment of g's edges in
// which no vertex of ownless owns an edge.
func ownershipVariants(g *graph.Graph, ownless []int) []*graph.Graph {
	noOwn := map[int]bool{}
	for _, v := range ownless {
		noOwn[v] = true
	}
	var free [][2]int
	base := g.Clone()
	for _, e := range g.Edges() {
		switch {
		case noOwn[e.U] && noOwn[e.V]:
			return nil
		case noOwn[e.U]:
			base.SetOwner(e.V, e.U)
		case noOwn[e.V]:
			base.SetOwner(e.U, e.V)
		default:
			free = append(free, [2]int{e.U, e.V})
		}
	}
	variants := make([]*graph.Graph, 0, 1<<len(free))
	for mask := 0; mask < 1<<len(free); mask++ {
		v := base.Clone()
		for i, e := range free {
			if mask&(1<<i) != 0 {
				v.SetOwner(e[1], e[0])
			} else {
				v.SetOwner(e[0], e[1])
			}
		}
		variants = append(variants, v)
	}
	return variants
}

func fig10HostCheck(base *graph.Graph) bool {
	host := Fig10HostGraph(base)
	s := game.NewScratch(8)
	for _, gm := range []game.Game{
		game.NewGreedyBuyHost(game.Max, Fig10Alpha, host),
		game.NewBuyHost(game.Max, Fig10Alpha, host),
	} {
		g := base.Clone()
		for _, mv := range fig10Moves() {
			for u := 0; u < 8; u++ {
				ms := gm.ImprovingMoves(g, u, s, nil)
				if u == mv.Agent {
					if len(ms) != 1 || !ms[0].Equal(mv) {
						return false
					}
				} else if len(ms) != 0 {
					return false
				}
			}
			game.Apply(g, mv)
		}
		if !g.Equal(base) {
			return false
		}
	}
	return true
}
