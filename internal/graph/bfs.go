package graph

import (
	"math"
	"math/bits"
)

// Unreachable is the distance reported for vertices in a different connected
// component. It is large enough that no sum of n-1 real distances can reach
// it, yet small enough that sums of a few Unreachable values do not
// overflow int64 cost arithmetic downstream.
const Unreachable = int32(1) << 29

// BFSScratch holds the reusable buffers of a breadth-first search. A single
// scratch may be reused across many searches on graphs with the same vertex
// count; it is not safe for concurrent use.
type BFSScratch struct {
	visited  Bitset
	frontier Bitset
	next     Bitset
	// queue backs the sparse backend's level-order walk; it grows on
	// demand, so dense-only users never allocate it.
	queue []int32
	// row and mark serve BFSEdited beyond one word: row holds the
	// mover's edited adjacency row (dense backend), mark the mover and the
	// other endpoints of its edited edges (CSR backend). Both are
	// allocated on first use.
	row  Bitset
	mark Bitset
	// balls caches the mover's G−u balls for BFSEdited and
	// BFSEditedTargets on one-word networks, derived from a store of G's
	// own balls (see balls.go); both are allocated on first use, and a
	// BatchBFSScratch may share the store (ShareBalls).
	balls moverBalls
}

// NewBFSScratch returns scratch space for BFS on n-vertex graphs.
func NewBFSScratch(n int) *BFSScratch {
	return &BFSScratch{
		visited:  NewBitset(n),
		frontier: NewBitset(n),
		next:     NewBitset(n),
	}
}

// BFSResult summarizes a single-source shortest-path computation.
type BFSResult struct {
	// Ecc is the eccentricity of the source restricted to its component.
	Ecc int32
	// Sum is the sum of distances from the source to every vertex of its
	// component.
	Sum int64
	// Reached is the number of vertices in the source's component,
	// including the source itself.
	Reached int
}

// BFS computes shortest-path distances from src. If dist is non-nil it must
// have length n and receives the distance to every vertex (Unreachable for
// other components). The scratch s must have been created for n vertices.
func (g *Graph) BFS(src int, dist []int32, s *BFSScratch) BFSResult {
	return g.bfsFrom(src, -1, dist, s)
}

// BFSExcluding computes shortest-path distances from src in the
// vertex-deleted subgraph G - excl: the excluded vertex is never entered or
// expanded, dist[excl] reports Unreachable, and the result aggregates over
// the subgraph only. It is the primitive behind delta-evaluated
// best-response scans, which batch one such search per relevant vertex and
// then score every candidate strategy change arithmetically. src must
// differ from excl.
func (g *Graph) BFSExcluding(src, excl int, dist []int32, s *BFSScratch) BFSResult {
	if src == excl {
		panic("graph: BFSExcluding source equals excluded vertex")
	}
	return g.bfsFrom(src, excl, dist, s)
}

// BFSEdited computes shortest-path distances from src in the network that
// results when agent u drops its edges to every vertex of drop and adds
// edges to every vertex of add — the network a strategy change of u would
// produce — without mutating g: no AdjVersion bump, no observer call, so
// concurrent searches of one network are safe with one scratch each. drop
// must list neighbours of u and add non-neighbours other than u, each
// vertex at most once; src may be any vertex. Results equal BFS on the
// edited network.
//
// On networks of ballMinN..64 vertices, an aggregate-only search from the
// mover (src == u, dist == nil) — the search that scores a candidate
// strategy — is answered from the balls of G−u cached in s: the first
// such search of a mover on a network version derives them from the balls
// of G, which one word-parallel pass per version fills for every mover,
// and each later one costs one OR and one popcount per level (see
// moverBalls); BFSEditedTargets scores all single additions of one drop
// against one read of the kept neighbours' balls. The cache is keyed on
// the graph's identity, its AdjVersion and the mover, so a scratch may
// alternate between graphs, movers and mutations of one graph.
func (g *Graph) BFSEdited(src, u int, drop, add []int, dist []int32, s *BFSScratch) BFSResult {
	if g.word != nil {
		var dm, am uint64
		for _, x := range drop {
			dm |= 1 << uint(x)
		}
		if src == u && dist == nil && g.n >= ballMinN {
			return s.balls.search(g, u, dm, add)
		}
		for _, y := range add {
			am |= 1 << uint(y)
		}
		ed := wordEdit{u: u, row: g.word[u]&^dm | am, touched: dm | am | 1<<uint(u)}
		return g.bfsWord(src, 0, ed, Bound{}, dist)
	}
	if len(s.row) == 0 {
		s.row = make(Bitset, len(s.visited))
	}
	s.row.CopyFrom(g.adj[u])
	for _, x := range drop {
		s.row.Clear(x)
	}
	for _, y := range add {
		s.row.Set(y)
	}
	return g.bfsBits(src, -1, &edit{u: u, drop: drop, add: add}, dist, s)
}

// Bound limits a batched edited search (BFSEditedTargets) to the results
// its caller can still use. A target's exact cost cannot be kept when its
// search does not reach all n vertices, or when its Sum is at least Sum, or
// its Ecc at least Ecc; such a target may be cut off, reported as the
// zero BFSResult (Reached == 0), before its search ends. A zero field
// bounds nothing, so the zero Bound asks for every result exact.
type Bound struct {
	Sum int64
	Ecc int32
}

// limits returns b's bounds with a zero field read as no bound.
func (b Bound) limits() (sum int64, ecc int32) {
	sum, ecc = b.Sum, b.Ecc
	if sum == 0 {
		sum = math.MaxInt64
	}
	if ecc == 0 {
		ecc = math.MaxInt32
	}
	return sum, ecc
}

// BFSEditedTargets scores a drop's targets in one call: it sets res[i] to
// BFSEdited(u, u, drop, add[i:i+1], nil, s), the aggregates of a search
// from u after u drops its edges to drop and adds one edge to add[i], for
// every i, or cuts res[i] off to the zero BFSResult where b allows (see
// Bound). drop and add follow BFSEdited's contract, and res must have
// len(add) entries.
//
// On one-word networks of ballMinN or more vertices the union over u's
// kept neighbours is read from the cached balls once per call, through
// the memo the single searches share, and each target costs one OR and
// one popcount per level; under an Ecc bound one reach test per target,
// at level b.Ecc-1, cuts every target that does not reach all n vertices
// by then, before its levels are read. Sum bounds are not applied there:
// a lower bound on Sum costs about as much per level as the exact count,
// and cutting on it measured slower on the SUM figure series. Below
// ballMinN each target is one one-word search over u's edited row, built
// once per call, which stops at the first level where the vertices it
// has not reached show the target's cost at or past a bound (see
// bfsWord). Beyond one word it is a loop of BFSEdited, every result
// exact.
func (g *Graph) BFSEditedTargets(u int, drop, add []int, b Bound, res []BFSResult, s *BFSScratch) {
	if g.word == nil {
		for i := range add {
			res[i] = g.BFSEdited(u, u, drop, add[i:i+1], nil, s)
		}
		return
	}
	var dm uint64
	for _, x := range drop {
		dm |= 1 << uint(x)
	}
	if g.n >= ballMinN {
		s.balls.searchEach(g, u, dm, add, b.Ecc, res)
		return
	}
	// The search starts at u, which is visited before any other row is
	// read, so only u's row needs the edit.
	row := g.word[u] &^ dm
	for i, y := range add {
		res[i] = g.bfsWord(u, 0, wordEdit{u: u, row: row | 1<<uint(y), touched: 1 << uint(u)}, b, nil)
	}
}

// bfsFrom is the shared core of BFS and BFSExcluding; excl < 0 means no
// vertex is excluded. Graphs of at most 64 vertices take the one-word path.
func (g *Graph) bfsFrom(src, excl int, dist []int32, s *BFSScratch) BFSResult {
	if g.word != nil {
		var visited uint64
		if excl >= 0 {
			visited = 1 << uint(excl)
		}
		return g.bfsWord(src, visited, wordEdit{}, Bound{}, dist)
	}
	return g.bfsBits(src, excl, nil, dist, s)
}

// wordEdit is the edited network of a one-word search: touched holds the
// mover u and the other endpoints of its edited edges, row the mover's
// edited adjacency row. Every other touched vertex gains or loses exactly
// its edge to u, so its row toggles u's bit. The zero value edits nothing.
type wordEdit struct {
	u            int
	row, touched uint64
}

// bfsWord is the BFS core on graphs of at most 64 vertices, where every
// adjacency row is one word: the frontier and the visited set are words,
// and a level expands by a trailing-zeros loop over the frontier. visited
// seeds the excluded vertex, if any.
//
// The distance sum is counted in deficit form: a vertex at distance d is
// counted once at each of the levels 0..d-1 it is still missing from, so
// with miss_t the vertices not reached within t hops, Sum = Σ_t miss_t.
// Every prefix of that sum is a lower bound on Sum, and the search stops,
// cut off to the zero BFSResult, at the first level where the prefix
// reaches b.Sum, or where some vertex is still missing after b.Ecc-1
// levels. Each level then costs one subtract, one add and two compares,
// and no multiply; an unreachable vertex counts at every level, which the
// exact sum takes out at the end. The search also ends as soon as nothing
// is missing, one frontier expansion before the level that finds nothing
// new.
func (g *Graph) bfsWord(src int, visited uint64, ed wordEdit, b Bound, dist []int32) BFSResult {
	adj := g.word
	frontier := uint64(1) << uint(src)
	visited |= frontier
	if dist != nil {
		fill32(dist, Unreachable)
		dist[src] = 0
	}
	sumLim, eccLim := b.limits()
	miss := len(adj) - bits.OnesCount64(visited)
	sum := int64(miss)
	res := BFSResult{Reached: 1}
	for depth := int32(1); miss != 0; depth++ {
		if sum >= sumLim || depth >= eccLim {
			return BFSResult{}
		}
		var next uint64
		for f := frontier &^ ed.touched; f != 0; f &= f - 1 {
			next |= adj[bits.TrailingZeros64(f)]
		}
		for f := frontier & ed.touched; f != 0; f &= f - 1 {
			v := bits.TrailingZeros64(f)
			if v == ed.u {
				next |= ed.row
			} else {
				next |= adj[v] ^ 1<<uint(ed.u)
			}
		}
		next &^= visited
		if next == 0 {
			// The miss unreachable vertices were counted at the levels
			// 0..depth-1.
			res.Sum = sum - int64(depth)*int64(miss)
			return res
		}
		cnt := bits.OnesCount64(next)
		res.Reached += cnt
		res.Ecc = depth
		miss -= cnt
		sum += int64(miss)
		visited |= next
		if dist != nil {
			for f := next; f != 0; f &= f - 1 {
				dist[bits.TrailingZeros64(f)] = depth
			}
		}
		frontier = next
	}
	res.Sum = sum
	return res
}

// edit is a strategy change of u for BFSEdited: its edges to drop go and
// edges to add appear.
type edit struct {
	u         int
	drop, add []int
}

// bfsBits is the BFS core on graphs beyond one word: each level ORs the
// adjacency rows of the frontier, then one pass masks out the visited set,
// counts the new level and marks it visited. Under an edit, the mover
// contributes its edited row from the scratch, a dropped endpoint its row
// without u and an added endpoint its row with u. The edit only concerns
// edges at u, so once u is expanded — and visited — the rest of the
// search is plain.
func (g *Graph) bfsBits(src, excl int, ed *edit, dist []int32, s *BFSScratch) BFSResult {
	visited, frontier, next := s.visited, s.frontier, s.next
	visited.Reset()
	frontier.Reset()
	if dist != nil {
		fill32(dist, Unreachable)
		dist[src] = 0
	}
	if excl >= 0 {
		visited.Set(excl)
	}
	visited.Set(src)
	frontier.Set(src)
	res := BFSResult{Reached: 1}
	for depth := int32(1); ; depth++ {
		next.Reset()
		if ed != nil {
			// u's row lacks u, so u's bit is clear when the dropped
			// endpoints have been ORed in, and set after the added ones.
			last := frontier.Has(ed.u)
			if last {
				frontier.Clear(ed.u)
				next.OrWith(s.row)
			}
			for _, x := range ed.drop {
				if frontier.Has(x) {
					frontier.Clear(x)
					next.OrWith(g.adj[x])
					next.Clear(ed.u)
				}
			}
			for _, y := range ed.add {
				if frontier.Has(y) {
					frontier.Clear(y)
					next.OrWith(g.adj[y])
					next.Set(ed.u)
				}
			}
			if last {
				ed = nil
			}
		}
		for i, w := range frontier {
			for ; w != 0; w &= w - 1 {
				next.OrWith(g.adj[i<<6|bits.TrailingZeros64(w)])
			}
		}
		cnt := 0
		seen := visited[:len(next)]
		for i, w := range next {
			w &^= seen[i]
			next[i] = w
			seen[i] |= w
			cnt += bits.OnesCount64(w)
		}
		if cnt == 0 {
			return res
		}
		res.Reached += cnt
		res.Sum += int64(depth) * int64(cnt)
		res.Ecc = depth
		if dist != nil {
			next.ForEach(func(v int) { dist[v] = depth })
		}
		frontier, next = next, frontier
	}
}

// Distances fills dist with shortest-path distances from src, allocating
// scratch internally. Prefer BFS with a reused scratch in hot paths.
func (g *Graph) Distances(src int) []int32 {
	dist := make([]int32, g.n)
	g.BFS(src, dist, NewBFSScratch(g.n))
	return dist
}

// Dist returns the shortest-path distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v int) int32 {
	if u == v {
		return 0
	}
	s := NewBFSScratch(g.n)
	dist := make([]int32, g.n)
	g.BFS(u, dist, s)
	return dist[v]
}

// Connected reports whether the graph is connected. The empty graph and the
// one-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	s := NewBFSScratch(g.n)
	return g.BFS(0, nil, s).Reached == g.n
}

// ConnectedFrom reports whether all n vertices are reachable from src using
// the provided scratch; it is the allocation-free form of Connected.
func (g *Graph) ConnectedFrom(src int, s *BFSScratch) bool {
	return g.BFS(src, nil, s).Reached == g.n
}

// AllDistances returns the full n x n distance matrix, row i holding
// distances from vertex i. Rows of vertices in other components hold
// Unreachable. The rows are built by the batched bit-parallel kernel, 64
// sources per pass.
func (g *Graph) AllDistances() [][]int32 {
	d := make([][]int32, g.n)
	backing := make([]int32, g.n*g.n)
	for u := 0; u < g.n; u++ {
		d[u] = backing[u*g.n : (u+1)*g.n]
	}
	g.AllSourcesBFSFlat(backing, nil, NewBatchBFSScratch(g.n))
	return d
}
