package graph

import "math/bits"

// The aggregate-only all-sources pass behind AllSourcesBFS: every vertex's
// BFSResult (Reached, Sum, Ecc) with no distance row anywhere. It runs the
// bit-parallel search of batchbfs.go with three changes, each of which
// pays for itself (see BenchmarkAllSourcesAggregates4096), on a core
// numbered in BFS order, which pays too:
//
//   - Fold at the settled vertex. Distances are symmetric, so when a group
//     newly reaches w at depth d with mask nw, d is w's distance to every
//     source in nw: w's own aggregate takes Reached += popcount(nw),
//     Sum += d·popcount(nw) and Ecc = max(Ecc, d). That is one popcount per
//     settled (vertex, word), with no per-source counters and no fold of
//     them per level.
//   - 256 sources per sweep: four membership words per vertex, so every CSR
//     edge walk serves four times the sources of batchGroup's one word.
//   - Leaves read off their parents. A degree-1 vertex ℓ whose neighbour p
//     has degree ≥ 2 lies on no shortest path between two other vertices,
//     so the pass searches the core (the vertices left after stripping such
//     leaves) and lets p stand in for its L(p) leaves: as a source p weighs
//     1 + L(p), kept as per-group bit-planes of L, and a "has leaves" mask
//     adds the leaf's extra hop to eccentricities. After the pass
//     Reached_ℓ = Reached_p, Sum_ℓ = Sum_p + Reached_p − 2 and
//     Ecc_ℓ = Ecc_p + 1 (p's other neighbour keeps Ecc_p ≥ d(p,ℓ)). One
//     layer is stripped; deeper pendant trees are searched as usual.
//
// Sums of exact integers do not depend on their order, so every aggregate
// is bit-identical to a single-source BFS from the same vertex.

// word4 is one vertex's membership in a 256-source group: bit i&63 of word
// i>>6 stands for the group's i-th source.
type word4 [4]uint64

func (w *word4) zero() bool { return w[0]|w[1]|w[2]|w[3] == 0 }

func (w *word4) count() int {
	return bits.OnesCount64(w[0]) + bits.OnesCount64(w[1]) +
		bits.OnesCount64(w[2]) + bits.OnesCount64(w[3])
}

// meets reports whether w & m is nonzero.
func (w *word4) meets(m *word4) bool {
	return (w[0]&m[0])|(w[1]&m[1])|(w[2]&m[2])|(w[3]&m[3]) != 0
}

// countAnd is the popcount of w & m.
func (w *word4) countAnd(m *word4) int {
	return bits.OnesCount64(w[0]&m[0]) + bits.OnesCount64(w[1]&m[1]) +
		bits.OnesCount64(w[2]&m[2]) + bits.OnesCount64(w[3]&m[3])
}

// aggScratch holds the aggregate pass's buffers. Core ids number the
// unstripped vertices 0..nc-1 in BFS order (see core).
type aggScratch struct {
	// id maps a vertex to its core id, -1 for a stripped leaf; vertex maps
	// a core id back. leaves counts each core vertex's stripped leaves.
	id, vertex, leaves []int32
	// csr/off are the core's neighbour lists, in core ids.
	csr, off []int32
	// reach/next are the per-vertex membership words; curV/cur and
	// nxtV/nxt the frontier of the current and the next level.
	reach, next, cur, nxt []word4
	curV, nxtV            []int32
	touched               []bool
	// res accumulates the core aggregates; planes holds bit b of every
	// source's leaf count in planes[b].
	res    []BFSResult
	planes []word4
}

func (a *aggScratch) grow(n int) {
	if len(a.id) >= n {
		return
	}
	a.id = make([]int32, n)
	a.vertex = make([]int32, n)
	a.leaves = make([]int32, n)
	a.off = make([]int32, n+1)
	a.reach = make([]word4, n)
	a.next = make([]word4, n)
	a.cur = make([]word4, n)
	a.nxt = make([]word4, n)
	a.curV = make([]int32, n)
	a.nxtV = make([]int32, n)
	a.touched = make([]bool, (n+63)/64)
	a.res = make([]BFSResult, n)
}

// allSourcesOver is the backend-shared body of AllSourcesBFS.
func allSourcesOver(g Store, res []BFSResult, s *BatchBFSScratch) {
	n := g.N()
	if len(res) != n {
		panic("graph: AllSourcesBFS res length mismatch")
	}
	if n == 0 {
		return
	}
	g.buildCSR(s)
	a := &s.agg
	a.grow(n)
	nc := a.core(n, s.csr, s.csrOff)
	for lo := 0; lo < nc; lo += 256 {
		a.group(nc, lo, min(256, nc-lo))
	}
	for c, v := range a.vertex[:nc] {
		res[v] = a.res[c]
	}
	csr, off := s.csr, s.csrOff
	for v, c := range a.id[:n] {
		if c < 0 {
			p := res[csr[off[v]]]
			res[v] = BFSResult{Reached: p.Reached, Sum: p.Sum + int64(p.Reached) - 2, Ecc: p.Ecc + 1}
		}
	}
}

// core strips every leaf whose neighbour has degree ≥ 2 from the CSR
// snapshot (csr, off) of an n-vertex graph, numbers the rest in BFS order
// (component by component, each from its smallest vertex), builds their
// neighbour lists and seeds each core vertex's aggregate with its own
// depth-0 share: itself plus its leaves at distance 1. It returns the core
// size. BFS numbering keeps a group's 256 sources close together and
// neighbours' words near each other in memory; aggregates do not depend
// on it.
func (a *aggScratch) core(n int, csr, off []int32) int {
	id, vertex, leaves := a.id[:n], a.vertex[:n], a.leaves[:n]
	for v := 0; v < n; v++ {
		id[v] = -2 // core, not numbered yet
		if off[v+1]-off[v] == 1 {
			p := csr[off[v]]
			if off[p+1]-off[p] >= 2 {
				id[v] = -1
			}
		}
	}
	nc := 0
	for src := 0; src < n; src++ {
		if id[src] != -2 {
			continue
		}
		id[src] = int32(nc)
		vertex[nc] = int32(src)
		nc++
		for head := nc - 1; head < nc; head++ {
			v := vertex[head]
			for _, w := range csr[off[v]:off[v+1]] {
				if id[w] == -2 {
					id[w] = int32(nc)
					vertex[nc] = w
					nc++
				}
			}
		}
	}
	clear(leaves[:nc])
	if cap(a.csr) < len(csr) {
		a.csr = make([]int32, len(csr))
	}
	list := a.csr[:0]
	for c, v := range vertex[:nc] {
		a.off[c] = int32(len(list))
		for _, w := range csr[off[v]:off[v+1]] {
			if cw := id[w]; cw >= 0 {
				list = append(list, cw)
			} else {
				leaves[c]++
			}
		}
	}
	a.off[nc] = int32(len(list))
	a.csr = list
	for c, l := range leaves[:nc] {
		a.res[c] = BFSResult{Reached: 1 + int(l), Sum: int64(l), Ecc: min(l, 1)}
	}
	return nc
}

// group runs the core source group [lo, lo+k) to exhaustion, folding every
// settled (vertex, mask) into the vertex's aggregate.
func (a *aggScratch) group(nc, lo, k int) {
	csr, off := a.csr, a.off
	reach, next := a.reach[:nc], a.next[:nc]
	clear(reach)
	clear(next)
	nb := (nc + 63) / 64
	small := nb <= smallBlocks
	touched := a.touched[:nb]
	clear(touched)

	// Bit-planes of the sources' leaf counts; has marks every source with
	// a leaf, whose farthest vertex is one hop past the source.
	maxL := int32(0)
	for _, l := range a.leaves[lo : lo+k] {
		maxL = max(maxL, l)
	}
	np := bits.Len32(uint32(maxL))
	if cap(a.planes) < np {
		a.planes = make([]word4, np)
	}
	planes := a.planes[:np]
	clear(planes)
	var has word4
	curV, cur := a.curV[:nc], a.cur[:nc]
	nxtV, nxt := a.nxtV[:nc], a.nxt[:nc]
	for i := 0; i < k; i++ {
		v := lo + i
		bit := uint64(1) << uint(i&63)
		wi := i >> 6
		if l := a.leaves[v]; l != 0 {
			has[wi] |= bit
			for b := 0; l != 0; b, l = b+1, l>>1 {
				if l&1 != 0 {
					planes[b][wi] |= bit
				}
			}
		}
		reach[v][wi] |= bit
		curV[i] = int32(v)
		cur[i] = word4{}
		cur[i][wi] = bit
	}

	res := a.res[:nc]
	lc := k
	depth := int32(0)
	for lc > 0 {
		// Expand: scatter every frontier mask along its incident core
		// edges.
		for j := 0; j < lc; j++ {
			fv := &cur[j]
			v := curV[j]
			for _, w := range csr[off[v]:off[v+1]] {
				nx := &next[w]
				nx[0] |= fv[0]
				nx[1] |= fv[1]
				nx[2] |= fv[2]
				nx[3] |= fv[3]
				if !small {
					touched[w>>6] = true
				}
			}
		}
		depth++
		// Settle and fold: the surviving bits of next[w] are the sources
		// that reach w first at this depth.
		ln := 0
		for blk := 0; blk < nb; blk++ {
			if !small {
				if !touched[blk] {
					continue
				}
				touched[blk] = false
			}
			wh := min((blk+1)<<6, nc)
			for w := blk << 6; w < wh; w++ {
				nx, rc := &next[w], &reach[w]
				nw := word4{nx[0] &^ rc[0], nx[1] &^ rc[1], nx[2] &^ rc[2], nx[3] &^ rc[3]}
				*nx = word4{}
				if nw.zero() {
					continue
				}
				rc[0] |= nw[0]
				rc[1] |= nw[1]
				rc[2] |= nw[2]
				rc[3] |= nw[3]
				nxtV[ln] = int32(w)
				nxt[ln] = nw
				ln++
				// Reached sources weigh 1 + their leaf count; their
				// leaves sit one hop further out.
				c, l, e := nw.count(), 0, depth
				if nw.meets(&has) {
					for b := range planes {
						l += nw.countAnd(&planes[b]) << b
					}
					e++
				}
				r := &res[w]
				r.Reached += c + l
				r.Sum += int64(depth)*int64(c+l) + int64(l)
				r.Ecc = max(r.Ecc, e)
			}
		}
		curV, nxtV = nxtV, curV
		cur, nxt = nxt, cur
		lc = ln
	}
}
