package graph

import "math/bits"

// Bit-parallel batched breadth-first search: up to 64 sources propagate
// simultaneously through one pass over the adjacency structure.
//
// The kernel maintains one uint64 of source membership per vertex: bit i of
// reach[v] records that source i has reached v. A level expands the word of
// every frontier vertex v along its edges (next[w] |= word(v) for each edge
// {v,w}), then settles the newly reached pairs (next[w] &^ reach[w]) in one
// word operation per vertex, so the per-level frontier work of 64 searches
// collapses into a single pass. Settled depths are staged in a group-local
// transposed matrix (64 consecutive entries per vertex, so a settle touches
// at most four cache lines instead of 64 rows) and emitted to the caller's
// rows by one blocked transpose after the search; per-source aggregates are
// folded once per level from 64 newly-reached counters instead of once per
// pair. Distances are unique, so every per-source row, Sum, Ecc and Reached
// is bit-identical to a separate single-source BFS.
//
// Row consumers (the engine's distance-cache build, delta-scan neighbour
// rows, landmark and survivor rows) call this instead of independent
// searches; sources are processed in groups of 64, a group of fewer simply
// leaves high bits unused. Callers that need aggregates only take
// AllSourcesBFS, whose pass (aggregates.go) folds at the settled vertex,
// sweeps 256 sources at a time and reads leaves off their parents.

// BatchBFSScratch holds the reusable buffers of batched searches: the
// per-vertex membership words and the transposed depth staging matrix, and
// those of the aggregate pass. A scratch grows on demand and may be reused
// across graphs; it is not safe for concurrent use.
type BatchBFSScratch struct {
	reach []uint64
	next  []uint64
	tmat  []int32 // n x 64 transposed depth staging, entry [v*64+i]
	// CSR neighbour lists of the current graph, shared by all source groups
	// of a batch call: the neighbours of v are csr[csrOff[v]:csrOff[v+1]].
	// Expansion walks these flat lists instead of re-unpacking adjacency
	// bitset words every level. The snapshot is cached across calls keyed on
	// (graph identity, adjacency version), so repeated searches of an
	// unchanged network skip the O(n²/64) bitset scan of the rebuild.
	csr    []int32
	csrOff []int32
	csrFor Store
	csrVer uint64
	// curV/curW and nxtV/nxtW are the frontier lists of the current and
	// the next level, a vertex paired with its newly-settled source word;
	// touched flags the 64-vertex blocks expansion wrote into, so settling
	// large graphs skips untouched blocks instead of scanning all n
	// vertices (small graphs scan everything — the flags cost more than
	// the scan they save).
	curV    []int32
	curW    []uint64
	nxtV    []int32
	nxtW    []uint64
	touched []bool
	// agg holds the buffers of the aggregate-only pass (aggregates.go).
	agg aggScratch
	// balls is the ball store behind the one-word AllSourcesBFS (see
	// ballStore), allocated on first use or shared with a BFSScratch.
	balls *ballStore
}

// NewBatchBFSScratch returns scratch space for batched BFS on n-vertex
// graphs (it grows on demand, so 0 is fine).
func NewBatchBFSScratch(n int) *BatchBFSScratch {
	s := &BatchBFSScratch{}
	s.grow(n)
	return s
}

func (s *BatchBFSScratch) grow(n int) {
	if len(s.reach) >= n {
		return
	}
	s.reach = make([]uint64, n)
	s.next = make([]uint64, n)
	s.tmat = make([]int32, n*64)
	s.curV = make([]int32, n)
	s.curW = make([]uint64, n)
	s.nxtV = make([]int32, n)
	s.nxtW = make([]uint64, n)
	s.touched = make([]bool, (n+63)/64)
}

// buildCSR snapshots g's adjacency into the scratch's flat neighbour lists,
// reusing the previous snapshot when the graph has not mutated since.
func (g *Graph) buildCSR(s *BatchBFSScratch) {
	if s.csrFor == Store(g) && s.csrVer == g.version {
		return
	}
	n := g.n
	if cap(s.csrOff) < n+1 {
		s.csrOff = make([]int32, n+1)
	}
	off := s.csrOff[: n+1 : n+1]
	if cap(s.csr) < 2*g.m {
		s.csr = make([]int32, 2*g.m)
	}
	list := s.csr[:0]
	for v := 0; v < n; v++ {
		off[v] = int32(len(list))
		for wi, w := range g.adj[v] {
			base := wi << 6
			for w != 0 {
				list = append(list, int32(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	off[n] = int32(len(list))
	s.csr = list
	s.csrOff = off
	s.csrFor = g
	s.csrVer = g.version
}

// fill32 sets every entry of dst to val using memmove doubling.
func fill32(dst []int32, val int32) {
	if len(dst) == 0 {
		return
	}
	dst[0] = val
	for filled := 1; filled < len(dst); filled *= 2 {
		copy(dst[filled:], dst[:filled])
	}
}

// BatchBFS computes shortest-path distances from every source, 64 sources
// per pass. rows, if non-nil, must have len(sources) entries; entry i, if
// non-nil, must have length n and receives the distance row of sources[i]
// (Unreachable for other components). res, if non-nil, must have
// len(sources) entries and receives the per-source aggregates. Every row and
// aggregate is identical to a single-source BFS from the same vertex.
func (g *Graph) BatchBFS(sources []int, rows [][]int32, res []BFSResult, s *BatchBFSScratch) {
	batchBFSOver(g, sources, -1, rows, res, s)
}

// BatchBFSExcluding is BatchBFS on the vertex-deleted subgraph G - excl: the
// excluded vertex is never entered or expanded, each row reports Unreachable
// at excl, and aggregates cover the subgraph only, matching BFSExcluding per
// source. No source may equal excl.
func (g *Graph) BatchBFSExcluding(sources []int, excl int, rows [][]int32, res []BFSResult, s *BatchBFSScratch) {
	for _, src := range sources {
		if src == excl {
			panic("graph: BatchBFSExcluding source equals excluded vertex")
		}
	}
	batchBFSOver(g, sources, excl, rows, res, s)
}

// AllSourcesBFS computes every vertex's BFS aggregates into res (length n)
// in the aggregate-only pass of aggregates.go, 256 sources per sweep, or
// on networks of at most 64 vertices by reading them off the scratch's
// ball store, whose one word-parallel level loop per network version also
// serves the mover searches of a BFSScratch that shares it (see
// ShareBalls). It is the primitive behind the memoized cost reads of
// landmark mode and naive-routed runs and the social-cost metrics; each
// res[u] is identical to BFS from u.
func (g *Graph) AllSourcesBFS(res []BFSResult, s *BatchBFSScratch) {
	if g.word == nil {
		allSourcesOver(g, res, s)
		return
	}
	if len(res) != g.n {
		panic("graph: AllSourcesBFS res length mismatch")
	}
	if s.balls == nil {
		s.balls = new(ballStore)
	}
	s.balls.fill(g)
	copy(res, s.balls.res)
}

// ShareBalls makes s read its one-word all-sources aggregates off t's ball
// store: AllSourcesBFS on s and the mover searches of BFSEdited and
// BFSEditedTargets on t then fill the store once per network version
// between them. Both scratches must serve one goroutine.
func (s *BatchBFSScratch) ShareBalls(t *BFSScratch) {
	if t.balls.store == nil {
		t.balls.store = new(ballStore)
	}
	s.balls = t.balls.store
}

// FillUnreachable sets every entry of dst to Unreachable; it is the
// required pre-state of AllSourcesBFSShard matrices.
func FillUnreachable(dst []int32) { fill32(dst, Unreachable) }

// AllSourcesBFSShard runs the identity source groups covering sources
// [lo, hi) — lo a multiple of 64 — writing their distance rows into the
// full row-major n*n matrix mat (as its column block [lo, hi), exploiting
// the symmetry of undirected distances) and their aggregates into
// res[lo:hi] (res may be nil, else length n). mat must be pre-filled with
// Unreachable (FillUnreachable). Distinct shards write disjoint entries,
// so a caller may run them concurrently on separate scratches to build the
// all-pairs matrix with its worker pool; the result is bit-identical to
// AllSourcesBFSFlat for any sharding.
func (g *Graph) AllSourcesBFSShard(lo, hi int, mat []int32, res []BFSResult, s *BatchBFSScratch) {
	allSourcesShardOver(g, lo, hi, mat, res, s)
}

// allSourcesShardOver is the backend-shared body of AllSourcesBFSShard.
func allSourcesShardOver(g Store, lo, hi int, mat []int32, res []BFSResult, s *BatchBFSScratch) {
	n := g.N()
	if lo%64 != 0 || lo < 0 || hi > n || lo > hi {
		panic("graph: AllSourcesBFSShard source range misaligned")
	}
	if len(mat) != n*n {
		panic("graph: AllSourcesBFSShard matrix length mismatch")
	}
	if res != nil && len(res) != n {
		panic("graph: AllSourcesBFSShard res length mismatch")
	}
	s.grow(n)
	g.buildCSR(s)
	for l := lo; l < hi; l += 64 {
		h := l + 64
		if h > hi {
			h = hi
		}
		var rs []BFSResult
		if res != nil {
			rs = res[l:h]
		}
		batchGroupSym(n, l, h-l, mat, rs, s)
	}
}

// AllSourcesBFSFlat is AllSourcesBFS into a row-major n*n matrix (mat may
// be nil for aggregates only). It exploits the symmetry of undirected
// distances: source group [lo, lo+64) settling vertex w writes the segment
// mat[w*n+lo : w*n+lo+64] of row w directly — d(s,w) = d(w,s) — so the
// matrix is emitted with no staging or transpose at all.
func (g *Graph) AllSourcesBFSFlat(mat []int32, res []BFSResult, s *BatchBFSScratch) {
	allSourcesFlatOver(g, mat, res, s)
}

// allSourcesFlatOver is the backend-shared body of AllSourcesBFSFlat.
func allSourcesFlatOver(g Store, mat []int32, res []BFSResult, s *BatchBFSScratch) {
	n := g.N()
	if mat != nil && len(mat) != n*n {
		panic("graph: AllSourcesBFSFlat matrix length mismatch")
	}
	if res != nil && len(res) != n {
		panic("graph: AllSourcesBFSFlat res length mismatch")
	}
	if mat == nil {
		if res != nil {
			g.AllSourcesBFS(res, s)
		}
		return
	}
	s.grow(n)
	g.buildCSR(s)
	fill32(mat, Unreachable)
	for lo := 0; lo < n; lo += 64 {
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var rs []BFSResult
		if res != nil {
			rs = res[lo:hi]
		}
		batchGroupSym(n, lo, hi-lo, mat, rs, s)
	}
}

// batchBFSOver is the backend-shared body of BatchBFS(Excluding): group the
// sources 64 at a time over the scratch's CSR snapshot.
func batchBFSOver(g Store, sources []int, excl int, rows [][]int32, res []BFSResult, s *BatchBFSScratch) {
	if rows != nil && len(rows) != len(sources) {
		panic("graph: BatchBFS rows length mismatch")
	}
	if res != nil && len(res) != len(sources) {
		panic("graph: BatchBFS res length mismatch")
	}
	n := g.N()
	s.grow(n)
	g.buildCSR(s)
	var rw [64][]int32
	for lo := 0; lo < len(sources); lo += 64 {
		hi := lo + 64
		if hi > len(sources) {
			hi = len(sources)
		}
		for i := lo; i < hi; i++ {
			var row []int32
			if rows != nil {
				row = rows[i]
			}
			rw[i-lo] = row
		}
		var rs []BFSResult
		if res != nil {
			rs = res[lo:hi]
		}
		batchGroup(n, sources[lo:hi], excl, &rw, rs, s)
	}
}

// batchFold folds one level's newly-reached counters into the aggregates
// and resets them.
func batchFold(res []BFSResult, cnt *[64]int32, depth int32) {
	for i := range res {
		c := cnt[i]
		if c == 0 {
			continue
		}
		cnt[i] = 0
		r := &res[i]
		r.Reached += int(c)
		r.Sum += int64(depth) * int64(c)
		r.Ecc = depth
	}
}

// smallBlocks is the block-count threshold below which settling scans
// every 64-vertex block: tracking touched blocks only pays once the scan it
// avoids is long enough.
const smallBlocks = 16

// batchGroup runs one group of at most 64 sources to exhaustion. rw holds
// the per-source output rows (entries may be nil); res, if non-nil,
// receives one aggregate per source.
func batchGroup(n int, src []int, excl int, rw *[64][]int32, res []BFSResult, s *BatchBFSScratch) {
	csr, off := s.csr, s.csrOff
	reach := s.reach[:n]
	next := s.next[:n]
	for v := range reach {
		reach[v] = 0
		next[v] = 0
	}
	tmat := s.tmat[: n*64 : n*64]
	fill32(tmat, Unreachable)
	// Seed the frontier: accumulate source bits per vertex in next (handles
	// duplicate sources), then drain into the (vertex, word) pair list.
	curV, curW := s.curV[:n], s.curW[:n]
	nxtV, nxtW := s.nxtV[:n], s.nxtW[:n]
	lc := 0
	for i, v := range src {
		bit := uint64(1) << uint(i)
		if next[v] == 0 {
			curV[lc] = int32(v)
			lc++
		}
		next[v] |= bit
		reach[v] |= bit
		tmat[v<<6|i] = 0
	}
	for j := 0; j < lc; j++ {
		v := curV[j]
		curW[j] = next[v]
		next[v] = 0
	}
	if excl >= 0 {
		// All membership bits set: no source ever settles the excluded
		// vertex (sources never equal excl, so it is not in the frontier).
		reach[excl] = ^uint64(0)
	}
	for i := range res {
		res[i] = BFSResult{Reached: 1}
	}

	nb := (n + 63) / 64
	small := nb <= smallBlocks
	touched := s.touched[:nb]
	if !small {
		for i := range touched {
			touched[i] = false
		}
	}
	var cnt [64]int32
	depth := int32(0)
	for lc > 0 {
		// Expand: scatter every frontier word along its incident edges,
		// walking the flat CSR neighbour lists of the frontier vertices.
		if small {
			for j := 0; j < lc; j++ {
				fv := curW[j]
				v := curV[j]
				for _, w := range csr[off[v]:off[v+1]] {
					next[w] |= fv
				}
			}
		} else {
			for j := 0; j < lc; j++ {
				fv := curW[j]
				v := curV[j]
				for _, w := range csr[off[v]:off[v+1]] {
					next[w] |= fv
					touched[w>>6] = true
				}
			}
		}
		depth++
		// Settle: one word op per vertex masks out already-reached sources;
		// surviving bits are the newly reached (source, vertex) pairs, whose
		// staged depth writes for one vertex span 64 consecutive entries.
		ln := 0
		for blk := 0; blk < nb; blk++ {
			if !small {
				if !touched[blk] {
					continue
				}
				touched[blk] = false
			}
			wh := (blk + 1) << 6
			if wh > n {
				wh = n
			}
			for w := blk << 6; w < wh; w++ {
				nw := next[w] &^ reach[w]
				next[w] = 0
				if nw == 0 {
					continue
				}
				reach[w] |= nw
				nxtV[ln] = int32(w)
				nxtW[ln] = nw
				ln++
				// Array-pointer view plus index masking drop the
				// per-pair bounds checks from the hottest loop.
				tw := (*[64]int32)(tmat[w<<6:])
				for m := nw; m != 0; {
					i := bits.TrailingZeros64(m) & 63
					m &= m - 1
					tw[i] = depth
					cnt[i]++
				}
			}
		}
		if ln > 0 && res != nil {
			batchFold(res, &cnt, depth)
		}
		curV, nxtV = nxtV, curV
		curW, nxtW = nxtW, curW
		lc = ln
	}

	// Emit: blocked transpose of the staging matrix into the caller's rows.
	// A 64-vertex block of tmat is 16 KiB, so each output row segment is
	// written sequentially from L1-resident input.
	k := len(src)
	for wb := 0; wb < n; wb += 64 {
		we := wb + 64
		if we > n {
			we = n
		}
		tb := tmat[wb<<6:]
		for i := 0; i < k; i++ {
			row := rw[i]
			if row == nil {
				continue
			}
			seg := row[wb:we]
			for j := range seg {
				seg[j] = tb[j<<6|i]
			}
		}
	}
}

// batchGroupSym runs the identity source group [lo, lo+k) to exhaustion,
// writing depths straight into the row-major n x n matrix mat: undirected
// distances are symmetric, so source lo+i reaching vertex w at depth d means
// mat[w*n+lo+i] = d — 64 consecutive entries of row w per settle, the final
// output location, with no staging. mat must be pre-filled with Unreachable;
// diagonal entries are set here.
func batchGroupSym(n, lo, k int, mat []int32, res []BFSResult, s *BatchBFSScratch) {
	csr, off := s.csr, s.csrOff
	reach := s.reach[:n]
	next := s.next[:n]
	for v := range reach {
		reach[v] = 0
		next[v] = 0
	}
	nb := (n + 63) / 64
	small := nb <= smallBlocks
	touched := s.touched[:nb]
	if !small {
		for i := range touched {
			touched[i] = false
		}
	}
	curV, curW := s.curV[:n], s.curW[:n]
	nxtV, nxtW := s.nxtV[:n], s.nxtW[:n]
	for i := 0; i < k; i++ {
		v := lo + i
		bit := uint64(1) << uint(i)
		reach[v] |= bit
		curV[i] = int32(v)
		curW[i] = bit
		mat[v*n+v] = 0
	}
	lc := k
	for i := range res {
		res[i] = BFSResult{Reached: 1}
	}
	var cnt [64]int32
	depth := int32(0)
	for lc > 0 {
		if small {
			for j := 0; j < lc; j++ {
				fv := curW[j]
				v := curV[j]
				for _, w := range csr[off[v]:off[v+1]] {
					next[w] |= fv
				}
			}
		} else {
			for j := 0; j < lc; j++ {
				fv := curW[j]
				v := curV[j]
				for _, w := range csr[off[v]:off[v+1]] {
					next[w] |= fv
					touched[w>>6] = true
				}
			}
		}
		depth++
		ln := 0
		for blk := 0; blk < nb; blk++ {
			if !small {
				if !touched[blk] {
					continue
				}
				touched[blk] = false
			}
			wh := (blk + 1) << 6
			if wh > n {
				wh = n
			}
			if k == 64 {
				// Full group: 64-entry array-pointer view of the row
				// segment plus index masking drop the per-pair bounds
				// checks (group bits never exceed k, so writes stay in
				// the segment).
				for w := blk << 6; w < wh; w++ {
					nw := next[w] &^ reach[w]
					next[w] = 0
					if nw == 0 {
						continue
					}
					reach[w] |= nw
					nxtV[ln] = int32(w)
					nxtW[ln] = nw
					ln++
					mw := (*[64]int32)(mat[w*n+lo:])
					for m := nw; m != 0; {
						i := bits.TrailingZeros64(m) & 63
						m &= m - 1
						mw[i] = depth
						cnt[i]++
					}
				}
			} else {
				for w := blk << 6; w < wh; w++ {
					nw := next[w] &^ reach[w]
					next[w] = 0
					if nw == 0 {
						continue
					}
					reach[w] |= nw
					nxtV[ln] = int32(w)
					nxtW[ln] = nw
					ln++
					base := w*n + lo
					mw := mat[base : base+k : base+k]
					for m := nw; m != 0; {
						i := bits.TrailingZeros64(m)
						m &= m - 1
						mw[i] = depth
						cnt[i]++
					}
				}
			}
		}
		if ln > 0 && res != nil {
			batchFold(res[:k], &cnt, depth)
		}
		curV, nxtV = nxtV, curV
		curW, nxtW = nxtW, curW
		lc = ln
	}
}
