package graph

import "math/bits"

// ballMinN is the smallest network on which BFSEdited answers the mover's
// aggregate-only searches from the balls of G−u. The build is one pass per
// mover and network version, which a probe that stops at its first
// improving candidate may not amortize. Measured on a 2-core x86-64 VM
// with the ball path forced on against the plain searches, one worker:
// the seven figure series (Figs 7, 8, 11-14, 200 trials per n, best of
// three) took 0.99× the time at n = 10, where four of them ran slower
// (up to 1.38×), 0.89× at n = 16, where one still did (1.06×),
// and 0.79× at n = 20, 0.75× at n = 24 and 0.69× at n = 32 with every
// series faster; a hunt-shaped campaign at n = 10 took 11.1-12.1 s
// against 10.0-11.5 s (five alternating runs). n = 20 is the first size
// at which every measured workload gains.
const ballMinN = 20

// moverBalls is the cache behind BFSEdited's mover searches on one-word
// networks. A strategy change of u leaves G−u as it is, and a shortest
// path from u leaves u once and never returns, so in the edited network
// the vertices within distance r+1 of u are u itself and the union, over
// u's new neighbours w, of B_w[r], the vertices within distance r of w in
// G−u. One word-parallel pass per (graph identity, AdjVersion, mover)
// fills every B_w[r]; a candidate with new neighbourhood N' then costs one
// OR and one popcount per level, the union over the neighbours u keeps
// memoized per drop mask, instead of a search. BFSEditedTargets scores all
// single-edge additions of one drop against one read of that union.
type moverBalls struct {
	g   *Graph
	ver uint64
	u   int
	// depth is the number of levels stored: ball[w*n+r] is B_w[r] for
	// r < depth (zero for w = u), and every ball is complete at
	// r = depth-1. A vertex's levels are contiguous, so a candidate reads
	// its added neighbour's balls in order.
	depth int
	ball  []uint64
	// cur, front and next are the build's current balls and its current
	// and next frontier words; acc folds the balls of a multi-edge
	// addition.
	cur, front, next, acc []uint64
	// kept[r] is u's bit ORed with B_w[r] over the neighbours w of u
	// outside the drop mask drop; keptOK marks it valid for the key above.
	// The batched search (searchEach) reads it once for all of a drop's
	// targets, and single searches reuse it while consecutive candidates
	// share their drop mask. When the naive scans still scored one
	// candidate per call, computing the union on every call took
	// BenchmarkMoverScan's ball path 1.2-1.6× the time at n = 32-64 and
	// cost perfbench figures 4-17% of its throughput (2-core x86-64 VM,
	// four seed pairs, identical digests).
	keptOK bool
	drop   uint64
	kept   []uint64
}

// keptFor returns u's kept union for the drop mask dm, building the balls
// first when the cache holds another graph, version or mover.
func (b *moverBalls) keptFor(g *Graph, u int, dm uint64) []uint64 {
	if b.g != g || b.ver != g.version || b.u != u {
		b.build(g, u)
	}
	kept := b.kept[:b.depth]
	if !b.keptOK || b.drop != dm {
		ubit := uint64(1) << uint(u)
		for r := range kept {
			kept[r] = ubit
		}
		n := g.n
		for k := g.word[u] &^ dm; k != 0; k &= k - 1 {
			w := bits.TrailingZeros64(k)
			for r, x := range b.ball[w*n : w*n+len(kept)] {
				kept[r] |= x
			}
		}
		b.drop, b.keptOK = dm, true
	}
	return kept
}

// search returns the aggregates of a search from g's mover u in the
// network where u drops its edges to the vertices of the mask dm and adds
// edges to add.
func (b *moverBalls) search(g *Graph, u int, dm uint64, add []int) BFSResult {
	kept := b.keptFor(g, u, dm)
	n := g.n
	// R(r+1) = kept[r] ∪ added[r], where added[r] is the union of B_y[r]
	// over the added neighbours y (kept itself when there are none, which
	// adds nothing).
	added := kept
	switch len(add) {
	case 0:
	case 1:
		added = b.ball[add[0]*n : add[0]*n+len(kept)]
	default:
		added = b.acc[:len(kept)]
		clear(added)
		for _, y := range add {
			for r, x := range b.ball[y*n : y*n+len(kept)] {
				added[r] |= x
			}
		}
	}
	return levels(kept, added)
}

// searchEach sets res[i] to search(g, u, dm, add[i:i+1]) for every i: the
// kept union is read once for the whole list, and each target costs one
// OR and one popcount per level.
func (b *moverBalls) searchEach(g *Graph, u int, dm uint64, add []int, res []BFSResult) {
	kept := b.keptFor(g, u, dm)
	n := g.n
	for i, y := range add {
		res[i] = levels(kept, b.ball[y*n:y*n+len(kept)])
	}
}

// levels returns the aggregates of a search from u whose reach within
// r+1 hops is kept[r] | added[r]: it ends at the first level that adds no
// vertex.
func levels(kept, added []uint64) BFSResult {
	res := BFSResult{}
	prev := 1
	for r, k := range kept {
		cnt := bits.OnesCount64(k | added[r])
		if cnt == prev {
			break
		}
		res.Sum += int64(r+1) * int64(cnt-prev)
		res.Ecc = int32(r + 1)
		prev = cnt
	}
	res.Reached = prev
	return res
}

// build fills the balls of G−u for every vertex of g, level by level (see
// growBalls).
func (b *moverBalls) build(g *Graph, u int) {
	n := g.n
	if len(b.cur) < n {
		// G−u has n-1 vertices, so every ball is complete within n-2
		// levels: at most n-1 of them are stored per vertex.
		b.ball = make([]uint64, n*n)
		b.cur = make([]uint64, n)
		b.front = make([]uint64, n)
		b.next = make([]uint64, n)
		b.acc = make([]uint64, n)
		b.kept = make([]uint64, n)
	}
	ubit := uint64(1) << uint(u)
	cur, front, next := b.cur[:n], b.front[:n], b.next[:n]
	for w := range cur {
		cur[w] = uint64(1) << uint(w) &^ ubit
		front[w] = cur[w]
		b.ball[w*n] = cur[w]
	}
	active := (^uint64(0) >> uint(64-n)) &^ ubit
	depth := 1
	for {
		active = growBalls(g.word, u, active, cur, front, next)
		if active == 0 {
			break
		}
		for w, x := range cur {
			b.ball[w*n+depth] = x
		}
		front, next = next, front
		depth++
	}
	b.g, b.ver, b.u, b.depth, b.keptOK = g, g.version, u, depth, false
}

// growBalls grows the ball cur[w] of every vertex w of the one-word
// network word other than skip (none if skip < 0) by one level: a
// vertex's ball grows by the frontiers front[a] of its neighbours a, and
// only neighbours in active, those whose frontier is non-empty, are read.
// next[w] receives w's new frontier. It returns the vertices whose ball
// grew, the next level's active set. The mover's G−u balls and the
// one-word all-sources pass both run on it.
func growBalls(word []uint64, skip int, active uint64, cur, front, next []uint64) uint64 {
	var grew uint64
	for w, adj := range word {
		if w == skip {
			continue
		}
		var f uint64
		for a := adj & active; a != 0; a &= a - 1 {
			f |= front[bits.TrailingZeros64(a)]
		}
		f &^= cur[w]
		next[w] = f
		if f != 0 {
			cur[w] |= f
			grew |= uint64(1) << uint(w)
		}
	}
	return grew
}
