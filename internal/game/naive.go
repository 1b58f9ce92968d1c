package game

import (
	"slices"

	"ncg/internal/graph"
)

// The naive scans are the swap games' and the GBG's second candidate
// enumerators (scanNaive), one per strategy space like the delta-scored
// swapScan and GreedyBuy.scan, whose candidates they offer to the
// best-response fold (fold.go) in exactly the same order. They differ in
// the scoring alone: each candidate costs the mover's cost in the network
// it would produce, a search of the edited network. A drop's targets are
// scored in one graph.Store.BFSEditedTargets call, which on one-word
// networks of about 20 agents or more reads the union over the mover's
// kept neighbours once from its cached G−u balls and then pays one OR and
// one popcount per level and target; the edge-cost halves are the drop's,
// computed once. The call is bounded by the fold's distance limit for the
// drop (graph.Bound), so a target that cannot be kept may be cut off
// before its search ends: under MAX one reach test per target on the
// balls, under SUM and MAX the first hopeless level of the one-word
// searches below 20 agents, the hunts' size. The mover's current cost is
// read off the same balls. The two scorings stay two enumerators, so
// neither branches on the other. On
// dense networks of at most 64 agents the naive scans are the faster ones
// and the ones production runs (see PreferNaiveScan); elsewhere they are
// the scoring reference the delta scans are tested against. The tests'
// independent truth is neither: it is the apply → Cost → undo brute force
// of FuzzBestResponse and TestExhaustiveScansMatchBruteForce, which
// applies each candidate, recomputes the mover's cost from scratch and
// undoes the move. Like the delta scans the naive scans only read the
// graph.

// offerTargets scores u's moves that drop drop and add one target of
// s.buf2 each, in one batched search, and offers them to f in target
// order at the drop's edge-cost halves; it reports whether the
// enumeration goes on. The drop's candidates share their halves, so one
// distance limit (fold.distLimit) skips those the keep rule cannot keep
// without a call into the fold. The limit taken before the call also
// bounds the search itself (graph.Bound: a SUM limit bounds the sum, a
// MAX limit the eccentricity), which may then cut a target off to a
// result that reaches no vertex; distCost reads it as disconnected, at or
// past any limit, so it is skipped like every other target past the
// limit. The limit only falls within a drop, so the bound stays sound as
// the offers tighten it.
func offerTargets(f *fold, g graph.Store, u int, drop []int, kind DistKind, halves int64) bool {
	s := f.s
	s.scored = slices.Grow(s.scored[:0], len(s.buf2))[:len(s.buf2)]
	limit := f.distLimit(halves)
	var b graph.Bound
	switch {
	case limit >= DistInf:
	case kind == Sum:
		b.Sum = limit
	default:
		b.Ecc = int32(limit)
	}
	g.BFSEditedTargets(u, drop, s.buf2, b, s.scored, s.bfs)
	n := g.N()
	for i, r := range s.scored {
		d := distCost(r, n, kind)
		if d >= limit {
			continue
		}
		if !f.offer(Cost{Halves: halves, Dist: d}, drop, s.buf2[i:i+1]) {
			return false
		}
		limit = f.distLimit(halves)
	}
	return true
}

// currentCost is u's current cost at the given edge-cost halves, from the
// search of the unedited network: on one-word networks of 20 or more
// agents it is read off the G−u balls that the scan's candidates are then
// scored from.
func currentCost(g graph.Store, u int, kind DistKind, halves int64, s *Scratch) Cost {
	return Cost{Halves: halves, Dist: distCost(g.BFSEdited(u, u, nil, nil, nil, s.bfs), g.N(), kind)}
}

// swapScanNaive is swapScan scored by the edited search: it offers f the
// same (drop x, add y) pairs of u, drops outermost, in candidate order.
func swapScanNaive(b *base, g graph.Store, u int, drops dropFunc, f *fold) {
	s := f.s
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	f.begin(currentCost(g, u, b.kind, 0, s))
	for i := range s.buf {
		if !offerTargets(f, g, u, s.buf[i:i+1], b.kind, 0) {
			return
		}
	}
}

// scanNaive is GreedyBuy.scan scored by the edited search: it offers f the
// same deletions, swaps and additions of u, in the same order.
func (gb *GreedyBuy) scanNaive(g graph.Store, u int, f *fold) {
	s := f.s
	s.buf = g.OwnedList(u, s.buf[:0])
	s.buf2 = gb.swapTargets(g, u, s.buf2[:0])
	halves := 2 * int64(len(s.buf))
	f.begin(currentCost(g, u, gb.kind, halves, s))
	n := g.N()
	// Deletions.
	for i := range s.buf {
		drop := s.buf[i : i+1]
		r := g.BFSEdited(u, u, drop, nil, nil, s.bfs)
		if !f.offer(Cost{Halves: halves - 2, Dist: distCost(r, n, gb.kind)}, drop, nil) {
			return
		}
	}
	// Swaps.
	for i := range s.buf {
		if !offerTargets(f, g, u, s.buf[i:i+1], gb.kind, halves) {
			return
		}
	}
	// Additions.
	offerTargets(f, g, u, nil, gb.kind, halves+2)
}

// naiveScanner is implemented by games with an edited-search enumerator
// next to their delta-scored one; games whose one enumerator already
// scores every candidate by an edited search (Buy, Bilateral) have none.
type naiveScanner interface {
	scanNaive(g graph.Store, u int, f *fold)
}

func (sg *Swap) scanNaive(g graph.Store, u int, f *fold) {
	swapScanNaive(&sg.base, g, u, sg.dropCandidates, f)
}

func (ag *AsymSwap) scanNaive(g graph.Store, u int, f *fold) {
	swapScanNaive(&ag.base, g, u, ag.dropCandidates, f)
}

// naiveGame wraps a game so that its queries run its naive scan.
type naiveGame struct {
	Game
}

// IsNaive reports whether gm is a Naive-wrapped game.
func IsNaive(gm Game) bool {
	_, ok := gm.(naiveGame)
	return ok
}

// oneWordN is the largest dense network (graph.Graph) the naive scans take
// on every game with a naive scan: up to 64 vertices an adjacency row
// is one word, so the candidates' searches run on graph's one-word path,
// and from 20 agents on a mover's candidates are answered from its cached
// G−u balls (see graph.Store's BFSEditedTargets), a popcount per level
// instead of a search. The evaluator's row matrices, witness buckets and
// bound caches are then constant-factor overhead. Measured on a 2-core
// x86-64 VM (one worker, 60 trials per n, best of three), the naive scans
// beat the delta scans on all seven figure series (Figs 7, 8, 11-14) at
// every n = 32, 40, 48, 56 and 64, by 1.42-5.95×; without the balls they
// lose on SUM-GBG (α = 4) at n = 32-48 and on MAX-GBG (α = 4) at
// n = 48-64, up to 1.43× slower. CSR networks (graph.Sparse) have neither
// path: each candidate is a queue search there, and the delta scans won on
// all seven series at every n = 10, 16, 20, 24, 31, 32, 40, 48, 56 and 64
// (naive time 1.05-6.7×, 30-100 trials per n, best of three), so they
// never take this rule.
const oneWordN = 64

// PreferNaiveScan reports the regimes where the delta evaluator and the
// incremental distance cache are known to lose to the naive full-BFS path.
// Two are known. Dense networks of at most 64 agents: see oneWordN; the
// paper's n = 10..50 experiment grids lie inside this regime. And MAX
// distance cost on a tree under a swap variant, on either backend: there a
// single swap reroutes shortest paths for a constant fraction of all
// vertex pairs, so maintaining the all-pairs matrix costs more than the
// searches it saves, while the early-exiting naive probes are near optimal
// (the Theorem 2.11 path gadget is the canonical instance). Swap variants
// preserve the edge count, so a tree stays a tree for the whole run; the
// vertex count never changes; so neither pre-check needs revisiting
// mid-run. The dynamics runner, the state-graph explorer (Explore) and the
// cycle search (SearchBestResponseCycle) apply this one rule to fall back
// to the naive scans, which enumerate identical moves in identical order.
func PreferNaiveScan(gm Game, g graph.Store) bool {
	if ng, ok := gm.(naiveGame); ok {
		gm = ng.Game
	}
	if _, ok := gm.(naiveScanner); !ok {
		return false
	}
	if d, dense := g.(*graph.Graph); dense && d.N() <= oneWordN {
		return true
	}
	switch gm.(type) {
	case *Swap, *AsymSwap:
	default:
		return false
	}
	return gm.DistKind() == Max && g.M() < g.N()
}

// Naive returns gm with its best-response queries answered by its naive
// scan, for the routed regimes of PreferNaiveScan, equivalence tests and
// before/after benchmarks. Games without a naive scan (Buy, Bilateral,
// whose one scan already searches every candidate's edited network) are
// returned as-is.
func Naive(gm Game) Game {
	if _, ok := gm.(naiveScanner); !ok {
		return gm
	}
	return naiveGame{gm}
}

func (ng naiveGame) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(ng.Game.(naiveScanner).scanNaive, g, u, ng.Alpha())
}

func (ng naiveGame) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(ng.Game.(naiveScanner).scanNaive, g, u, ng.Alpha(), dst)
}

func (ng naiveGame) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(ng.Game.(naiveScanner).scanNaive, g, u, ng.Alpha(), dst)
}
