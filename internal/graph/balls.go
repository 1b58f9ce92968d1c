package graph

import "math/bits"

// The balls of a one-word network: B_w[r] is the set of vertices within
// distance r of w. One store per (graph identity, AdjVersion) holds G's own
// balls, filled level by level for every vertex at once (ballStore.grow);
// the one-word AllSourcesBFS reads its aggregates off them, and every
// mover's balls of G−u are derived from them rather than grown from
// singletons. The derivation rests on two facts:
//
//   - Levels up to d_G(w,u) are G's: for r ≤ d_G(w,u),
//     B^{G−u}_w[r] = B^G_w[r] \ {u}, because a shortest path from w of
//     length at most d_G(w,u) that passed through u would reach u sooner.
//     So only level r+1 of the vertices within r of u in G, read off u's
//     own ball, is regrown.
//   - A neutral mover changes no distance: if every two non-adjacent
//     neighbours a, c of u share a neighbour b other than u (always true
//     for a leaf), the middle a-u-c of a shortest path through u can be
//     rerouted a-b-c at the same length, so G−u keeps every distance of G
//     between other vertices and its balls are G's. The same rerouting
//     within each component of G−u covers a mover whose only such pairs
//     without a shared neighbour lie on different sides of it: G−u keeps
//     the distances within each side, and a ball of G−u is G's cut to its
//     side.
//
// u's own bit never needs masking: every read ORs the balls with the kept
// union, which starts at u's bit (see keptFor), and the regrowth unions
// whole balls rather than expanding from their members, so a stray u adds
// nothing to a count and reaches nothing.

// ballMinN is the smallest network on which BFSEdited answers the mover's
// aggregate-only searches from the balls of G−u. The crossover was
// measured when every mover's balls were grown from singletons, one pass
// per mover and network version, which a probe that stops at its first
// improving candidate may not amortize: on a 2-core x86-64 VM with the
// ball path forced on against the plain searches, one worker, the seven
// figure series (Figs 7, 8, 11-14, 200 trials per n, best of three) took
// 0.99× the time at n = 10, where four of them ran slower (up to 1.38×),
// 0.89× at n = 16, where one still did (1.06×), and 0.79× at n = 20,
// 0.75× at n = 24 and 0.69× at n = 32 with every series faster; a
// hunt-shaped campaign at n = 10 took 11.1-12.1 s against 10.0-11.5 s
// (five alternating runs). Deriving the balls from the store made the
// build cheaper, which can only move the crossover down; the value stays,
// since the hunts at n = 10 change the network between the agents of one
// state and so would fill a store for nearly every scan. Both paths now
// also take a distance bound (Bound), which cuts MAX targets on the balls
// by one reach test each and SUM and MAX targets in the one-word searches
// at their first hopeless level. The crossover above was measured before
// bounded scoring, and the value stays.
const ballMinN = 20

// ballStore holds the balls of a one-word network G itself for one
// (graph identity, AdjVersion): ball[w*n+r] = B_w[r] for r < depth, every
// ball complete at depth-1; grew[r] holds the vertices whose ball grew at
// level r (every vertex at r = 0); res holds every vertex's BFS
// aggregates. A BFSScratch and a BatchBFSScratch may share one store (see
// ShareBalls), so one fill per network version serves the all-sources
// aggregates and every mover's balls.
type ballStore struct {
	g          *Graph
	ver        uint64
	depth      int
	ball, grew []uint64
	res        []BFSResult
	// cur, front and next are the fill's current balls and its current
	// and next frontier words.
	cur, front, next []uint64
}

// fill makes the store hold g's balls for its current version, and reports
// whether it had to refill them: a refill invalidates every mover cache
// derived from the store's previous contents.
func (st *ballStore) fill(g *Graph) bool {
	if st.g == g && st.ver == g.version {
		return false
	}
	n := g.n
	if len(st.cur) < n {
		// Every ball is complete within n-1 levels: at most n are stored
		// per vertex.
		st.ball = make([]uint64, n*n)
		st.grew = make([]uint64, n)
		st.res = make([]BFSResult, n)
		st.cur = make([]uint64, n)
		st.front = make([]uint64, n)
		st.next = make([]uint64, n)
	}
	cur, front := st.cur[:n], st.front[:n]
	for w := range cur {
		cur[w] = uint64(1) << uint(w)
		front[w] = cur[w]
		st.ball[w*n] = cur[w]
		st.res[w] = BFSResult{Reached: 1}
	}
	active := ^uint64(0) >> uint(64-n)
	st.grew[0] = active
	depth := 1
	for ; depth < n; depth++ {
		active = st.grow(g.word, depth, active)
		if active == 0 {
			break
		}
		st.grew[depth] = active
		st.front, st.next = st.next, st.front
	}
	st.g, st.ver, st.depth = g, g.version, depth
	return true
}

// grow is one level of the store's recurrence, the balls of every vertex
// at once: a vertex's ball grows by the frontiers of its neighbours, and
// only neighbours in active, those whose frontier is non-empty, are read.
// The vertices entering w's ball at level depth are exactly those at
// distance depth from w, so their count folds straight into w's
// aggregate. grow writes every ball's level depth and the next frontiers,
// and returns the vertices whose ball grew, the next level's active set.
func (st *ballStore) grow(word []uint64, depth int, active uint64) uint64 {
	n := len(word)
	cur, front, next, res := st.cur[:n], st.front[:n], st.next[:n], st.res[:n]
	ball := st.ball[:n*n]
	var grew uint64
	for w, adj := range word {
		var f uint64
		for a := adj & active; a != 0; a &= a - 1 {
			f |= front[bits.TrailingZeros64(a)]
		}
		f &^= cur[w]
		next[w] = f
		if f != 0 {
			cur[w] |= f
			grew |= uint64(1) << uint(w)
			c := bits.OnesCount64(f)
			res[w].Reached += c
			res[w].Sum += int64(depth) * int64(c)
			res[w].Ecc = int32(depth)
		}
		ball[w*n+depth] = cur[w]
	}
	return grew
}

// moverBalls is the cache behind BFSEdited's mover searches on one-word
// networks. A strategy change of u leaves G−u as it is, and a shortest
// path from u leaves u once and never returns, so in the edited network
// the vertices within distance r+1 of u are u itself and the union, over
// u's new neighbours w, of B_w[r] in G−u. The balls of G−u are derived
// from the store once per (graph identity, AdjVersion, mover); a candidate
// with new neighbourhood N' then costs one OR and one popcount per level,
// the union over the neighbours u keeps memoized per drop mask, instead of
// a search. BFSEditedTargets scores all single-edge additions of one drop
// against one read of that union.
type moverBalls struct {
	// store holds G's balls; it is allocated on first use or shared with
	// a kernel scratch (ShareBalls).
	store *ballStore
	g     *Graph
	ver   uint64
	u     int
	// depth is the number of levels stored: ball[w*n+r] is B_w[r] of G−u
	// for w != u and r < depth, up to u's bit, and every ball is complete
	// at r = depth-1. A vertex's levels are contiguous, so a candidate
	// reads its added neighbour's balls in order. ball is the store's
	// arena for a neutral mover and own, the derived rows, otherwise.
	depth int
	ball  []uint64
	own   []uint64
	// acc folds the balls of a multi-edge addition; side[a] is the
	// component of G−u of u's neighbour a, when split labelled it.
	acc, side []uint64
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

// keptFor returns u's kept union for the drop mask dm, deriving the balls
// first when the cache holds another graph, version or mover, or when the
// store had to be refilled: a neutral mover's rows are the store's own, so
// a fill for another graph or version must not leave them in use.
func (b *moverBalls) keptFor(g *Graph, u int, dm uint64) []uint64 {
	if b.store == nil {
		b.store = new(ballStore)
	}
	if b.store.fill(g) || b.g != g || b.ver != g.version || b.u != u {
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
// OR and one popcount per level. A positive ecc is BFSEditedTargets'
// eccentricity bound: a target can then be kept only if it reaches all n
// vertices within ecc-1 hops, kept[r] | B_y[r] at r = ecc-2 (clamped to
// the last level, where every ball is complete), so one OR and one
// compare cut every other target before its levels are read.
func (b *moverBalls) searchEach(g *Graph, u int, dm uint64, add []int, ecc int32, res []BFSResult) {
	kept := b.keptFor(g, u, dm)
	n := g.n
	if ecc == 0 {
		for i, y := range add {
			res[i] = levels(kept, b.ball[y*n:y*n+len(kept)])
		}
		return
	}
	r := min(int(ecc)-2, len(kept)-1)
	all := ^uint64(0) >> uint(64-n)
	for i, y := range add {
		ball := b.ball[y*n : y*n+len(kept)]
		if r < 0 || kept[r]|ball[r] != all {
			res[i] = BFSResult{}
			continue
		}
		res[i] = levels(kept, ball)
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

// build derives the balls of G−u from the store, which holds g's current
// version. A mover whose removal keeps every distance takes the store's
// rows as they are; every other mover starts from a copy of them. One
// whose removal only splits G cuts each vertex's rows to its side (see
// split). Otherwise every vertex keeps G's levels up to its distance to
// u, and level r+1 is regrown for the vertices within r of u in G only: a
// vertex's ball at r+1 is its ball at r united with the balls at r of its
// neighbours other than u, where a neighbour whose ball did not grow at r
// adds nothing, and a ball that did not grow at r is complete. Vertices
// beyond r of u keep G's activity, which can only overstate G−u's, so the
// levels run on until no ball grows in G−u and none of the vertices not
// yet regrown grows in G; past the store's depth (removing u lengthens
// paths) the vertices of other components keep their complete balls.
func (b *moverBalls) build(g *Graph, u int) {
	st, n := b.store, g.n
	if len(b.kept) < n {
		// G−u has n-1 vertices, so every ball is complete within n-2
		// levels, and G's within n-1: at most n are stored per vertex.
		b.own = make([]uint64, n*n)
		b.acc = make([]uint64, n)
		b.kept = make([]uint64, n)
		b.side = make([]uint64, n)
	}
	b.g, b.ver, b.u, b.keptOK = g, g.version, u, false
	sb, own, gd := st.ball, b.own, st.depth
	kind := b.split(g.word, u)
	if kind == keepsDistances {
		b.ball, b.depth = sb, gd
		return
	}
	for w := 0; w < n; w++ {
		copy(own[w*n:w*n+gd], sb[w*n:w*n+gd])
	}
	if kind == splitsOnly {
		for left := g.word[u]; left != 0; {
			side := b.side[bits.TrailingZeros64(left)]
			left &^= side
			for x := side; x != 0; x &= x - 1 {
				w := bits.TrailingZeros64(x)
				for r := w * n; r < w*n+gd; r++ {
					own[r] &= side
				}
			}
		}
		b.ball, b.depth = own, gd
		return
	}
	// Regrow: u's row in the store, row[r], holds the vertices within r
	// of u, and others the vertices of G's other components, whose balls
	// stay G's.
	ubit := uint64(1) << uint(u)
	row := sb[u*n : u*n+gd]
	others := ^uint64(0) >> uint(64-n) &^ row[gd-1]
	act := st.grew[0] &^ ubit
	r := 0
	for ; act != 0; r++ {
		// Level r+1: the vertices within r of u regrow it.
		in := row[min(r, gd-1)] &^ ubit
		var grew uint64
		for x := in; x != 0; x &= x - 1 {
			w := bits.TrailingZeros64(x)
			ball := own[w*n+r]
			f := ball
			if act&(1<<uint(w)) != 0 {
				for a := g.word[w] & act; a != 0; a &= a - 1 {
					f |= own[bits.TrailingZeros64(a)*n+r]
				}
				if (f^ball)&^ubit != 0 {
					grew |= 1 << uint(w)
				}
			}
			own[w*n+r+1] = f
		}
		var sg uint64
		if r+1 < gd {
			sg = st.grew[r+1]
		} else {
			for x := others; x != 0; x &= x - 1 {
				w := bits.TrailingZeros64(x)
				own[w*n+r+1] = own[w*n+r]
			}
		}
		act = (sg&^in | grew) &^ ubit
	}
	b.ball, b.depth = own, r
}

// What removing a mover u does to G's distances (see split).
const (
	// keepsDistances: G−u keeps every distance of G between other
	// vertices.
	keepsDistances = iota
	// splitsOnly: G−u has several components around u, and keeps every
	// distance of G within each.
	splitsOnly
	// reroutes: some distance within a component of G−u grows.
	reroutes
)

// split classifies the mover u of the one-word network word. Two
// non-adjacent neighbours a and c of u that share a neighbour other than
// u leave every distance that a path a-u-c carried intact; if that holds
// for every such pair left in one component of G−u, then G−u keeps every
// distance within its components. When some pair shares no neighbour,
// split labels side[a], for every neighbour a of u, with a's component of
// G−u, and only a pair on one side makes u reroute.
func (b *moverBalls) split(word []uint64, u int) int {
	ubit := uint64(1) << uint(u)
	labelled := false
	for x := word[u]; x != 0; {
		a := bits.TrailingZeros64(x)
		x &= x - 1
		for y := x &^ word[a]; y != 0; y &= y - 1 {
			c := bits.TrailingZeros64(y)
			if word[a]&word[c]&^ubit != 0 {
				continue
			}
			if !labelled {
				b.label(word, u)
				labelled = true
			}
			if b.side[a]&(1<<uint(c)) != 0 {
				return reroutes
			}
		}
	}
	if labelled {
		return splitsOnly
	}
	return keepsDistances
}

// label sets side[a], for every neighbour a of u in the one-word network
// word, to a's component of G−u, one flood fill per component.
func (b *moverBalls) label(word []uint64, u int) {
	ubit := uint64(1) << uint(u)
	for left := word[u]; left != 0; {
		seen := uint64(1) << uint(bits.TrailingZeros64(left))
		for front := seen; front != 0; {
			var next uint64
			for f := front; f != 0; f &= f - 1 {
				next |= word[bits.TrailingZeros64(f)]
			}
			front = next &^ seen &^ ubit
			seen |= front
		}
		for y := seen & left; y != 0; y &= y - 1 {
			b.side[bits.TrailingZeros64(y)] = seen
		}
		left &^= seen
	}
}
