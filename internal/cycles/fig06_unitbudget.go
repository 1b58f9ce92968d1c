package cycles

import (
	"ncg/internal/game"
	"ncg/internal/graph"
)

// Figure 6 / Theorem 3.7 (MAX version): a best response cycle for the
// MAX-ASG on a 20-agent network in which EVERY agent owns exactly one edge
// (the uniform unit-budget case of Ehsani et al., answered in the
// negative). This also witnesses Theorem 3.5's claim that the MAX-ASG on
// general networks admits best response cycles.
//
// The instance was reconstructed by the search.Fig6CandidatesMinimal
// search over the figure's component family (four chains a2-..-a6,
// b1-..-b4, d1-d2-d3, e1-..-e6 plus c1 and four connector edges), keeping
// assemblies on which the four designated moves are best responses and the
// trajectory closes. The first candidate reproduces the proof's facts:
//
//	G1: ecc(a1) = 6, d(a1,a6) = 5; a1's best swaps go exactly to
//	    {e2,e3,e4,e5}, saving 1 (designated: e5);
//	G2: the unique cycle a1-e5-e4-e3-e2-c1-d1-b2-b1 has length 9;
//	    ecc(b1) = 6; b1's best swaps go exactly to {a2, a3} (designated:
//	    a3);
//	G3: ecc(a1) = 7 (realized at d3); best swaps reach ecc 6 at
//	    {c1, e1, e2, e3} (the prose lists only e1..e3; c1 also ties in
//	    this reconstruction), designated: e1;
//	G4: ecc(b1) = 8 (realized at e6); best swaps exactly {a1, e1},
//	    designated: a1 — closing the cycle.
//
// Topology: the chains a6-..-a2, b4-..-b2 and d3-d2-d1 thread into a core
// ring a1-b1-b2-d1-c1-e2-e1-a1; a1 and b1 each own one ring edge and swap
// it around the ring, stretching the ring from 7 to 11 edges and back.

// Vertex labels of the Figure 6 construction.
const (
	f6a1 = iota
	f6a2
	f6a3
	f6a4
	f6a5
	f6a6
	f6b1
	f6b2
	f6b3
	f6b4
	f6c1
	f6d1
	f6d2
	f6d3
	f6e1
	f6e2
	f6e3
	f6e4
	f6e5
	f6e6
)

var fig6Names = []string{
	"a1", "a2", "a3", "a4", "a5", "a6",
	"b1", "b2", "b3", "b4",
	"c1", "d1", "d2", "d3",
	"e1", "e2", "e3", "e4", "e5", "e6",
}

// Fig6Start builds the unit-budget Figure 6 network G1; every agent owns
// exactly one edge.
func Fig6Start() *graph.Graph {
	g := graph.New(20)
	g.AddEdge(f6a1, f6e1) // a1's oscillating edge, at e1 in G1
	g.AddEdge(f6a2, f6a1)
	g.AddEdge(f6a3, f6a2)
	g.AddEdge(f6a4, f6a3)
	g.AddEdge(f6a5, f6a4)
	g.AddEdge(f6a6, f6a5)
	g.AddEdge(f6b1, f6a1) // b1's oscillating edge, at a1 in G1
	g.AddEdge(f6b2, f6b1)
	g.AddEdge(f6b3, f6b2)
	g.AddEdge(f6b4, f6b3)
	g.AddEdge(f6c1, f6d1)
	g.AddEdge(f6d1, f6b2)
	g.AddEdge(f6d2, f6d1)
	g.AddEdge(f6d3, f6d2)
	g.AddEdge(f6e1, f6e2)
	g.AddEdge(f6e2, f6c1)
	g.AddEdge(f6e3, f6e2)
	g.AddEdge(f6e4, f6e3)
	g.AddEdge(f6e5, f6e4)
	g.AddEdge(f6e6, f6e5)
	return g
}

// Fig6MaxASGUnitBudget is the Figure 6 best response cycle.
func Fig6MaxASGUnitBudget() Instance {
	return Instance{
		Name:  "Fig6 MAX-ASG unit budget",
		Game:  game.NewAsymSwap(game.Max),
		Start: Fig6Start,
		Steps: []Step{
			{Move: game.Move{Agent: f6a1, Drop: []int{f6e1}, Add: []int{f6e5}}},
			{Move: game.Move{Agent: f6b1, Drop: []int{f6a1}, Add: []int{f6a3}}},
			{Move: game.Move{Agent: f6a1, Drop: []int{f6e5}, Add: []int{f6e1}}},
			{Move: game.Move{Agent: f6b1, Drop: []int{f6a3}, Add: []int{f6a1}}},
		},
		ClosesExactly: true,
		VertexNames:   fig6Names,
	}
}
