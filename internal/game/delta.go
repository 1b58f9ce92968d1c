package game

import (
	"ncg/internal/graph"
)

// Delta-evaluated best-response scanning.
//
// Every single-edge strategy change of an agent u — dropping an incident
// edge, adding a new one, or swapping — leaves the rest of the network
// untouched. A path from u never revisits u, so its first edge goes to one
// of u's neighbours and the remainder runs in the vertex-deleted subgraph
// G-u, which no single-edge change of u alters:
//
//	d_{G'}(u, v) = 1 + min_{w in N'(u)} d_{G-u}(w, v)   for v != u,
//
// where N'(u) is u's neighbourhood after the change. One bitset BFS per
// relevant vertex of G-u (current neighbours eagerly, candidate targets
// lazily, all cached in a scan-local row pool for the duration of the scan)
// therefore replaces the per-candidate full BFS of the naive scan. The pool
// hands out O(n) rows on demand — deg(u) plus one per surviving target —
// so scratch memory scales with the rows a scan actually touches, not n².
// Everything derived from G-u alone (the rows, the minima and witness
// buckets below, and the current-cost and per-target aggregates) outlives
// the scan: it is kept for the next scan of the same mover on the same
// network version, whatever the game or distance kind, so a probe, the
// best-move scan after it and the commit's leaf fold (FoldLeafSwap) share
// one preparation.
//
// Scoring is split so the per-candidate work shrinks below O(n). With
// a(v) = 1 + min_w d_{G-u}(w, v) over the current neighbours and the
// witness arg(v) attaining it, adding a target y changes only the minimum:
// cost(+y) aggregates min(a(v), 1 + d_{G-u}(y, v)), an O(n) pass done once
// per target and cached. Dropping a neighbour x additionally affects only
// the vertices whose witness is x (their minimum falls back to the second
// minimum), so each (drop x, add y) pair costs O(|S_x|), where the witness
// buckets S_x partition the vertex set — O(n / deg(u)) on average — on top
// of the cached per-target aggregate. For MAX costs the same split keeps,
// per target, the maximum together with its witness class and the best
// value outside that class, which answers "max with class x removed" in
// O(1) before the bucket correction.
type deltaScratch struct {
	// n is the allocated capacity; dn the vertex count of the graph of
	// the current scan (scratches may be reused across sizes).
	n  int
	dn int
	// The d_{G-u}(w, .) rows of the current scan live in a lazily grown
	// pool: rowIdx maps a vertex to its pool slot (-1: not computed),
	// rowTouched lists the vertices holding a slot so a new scan resets in
	// O(rows used) time.
	pool       [][]int32
	rowIdx     []int32
	rowTouched []int32
	used       int
	// min1/arg1/min2: per-vertex minimum over the neighbour rows, the
	// neighbour attaining it (as a position in nbrs, -1 if none), and the
	// minimum over the remaining neighbours.
	min1 []int32
	min2 []int32
	arg1 []int32
	// pos maps a neighbour vertex to its position in nbrs (-1 otherwise).
	pos []int32
	// witBuf/witOff: vertices bucketed by witness position; bucket i is
	// witBuf[witOff[i]:witOff[i+1]].
	witBuf []int32
	witOff []int32
	cnt    []int32
	// Current-cost aggregates over a(v): the sum with the number of
	// unreachable vertices, the maximum with its witness class, and the
	// best value outside that class.
	curSum  int64
	curInf  int32
	curMax1 int32
	curC1   int32
	curMax2 int32
	// Per-target aggregates of f_y(v) = min(a(v), 1 + d_{G-u}(y, v)),
	// computed together with the target's row: the sum with the number of
	// unreachable vertices, the maximum with its witness class, and the
	// best value outside that class.
	ySum  []int64
	yInf  []int32
	yMax1 []int32
	yC1   []int32
	yMax2 []int32
	// Per-target oracle bounds (see deltaTargetBound): bndDone marks
	// cached entries, bndExact the ones computed without an early exit.
	// The bounds depend on the query (distance kind, limit), so every
	// scan starts with none marked.
	bnd      []int64
	bndDone  graph.Bitset
	bndExact graph.Bitset
	// prepFor, prepVer and prepU key the kept preparation: the graph
	// identity, its AdjVersion and the mover (the key of graph's cached
	// G−u balls). minsReady records that deltaInit ran for that key, so
	// the lazy probe path can defer the neighbour searches until a target
	// survives its bound.
	prepFor   graph.Store
	prepVer   uint64
	prepU     int
	minsReady bool
	// suspects is the damage set of oracle-seeded row repairs.
	suspects graph.Bitset
	// rowp serves the batched neighbour-row builds of oracle-less scans:
	// one bit-parallel kernel call computes every d_{G-u}(w, .) row
	// instead of one BFSExcluding per neighbour.
	rowp [][]int32
}

// deltaBatchMinN is the vertex count from which oracle-less scans batch
// their neighbour rows through the bit-parallel kernel.
const deltaBatchMinN = 128

// grow ensures capacity for n-vertex graphs.
func (d *deltaScratch) grow(n int) {
	if d.n >= n {
		return
	}
	d.n = n
	d.prepFor = nil
	d.pool = d.pool[:0] // previous rows are too short for the new size
	d.used = 0
	d.rowTouched = d.rowTouched[:0]
	d.rowIdx = make([]int32, n)
	for i := range d.rowIdx {
		d.rowIdx[i] = -1
	}
	d.min1 = make([]int32, n)
	d.min2 = make([]int32, n)
	d.arg1 = make([]int32, n)
	d.pos = make([]int32, n)
	d.witBuf = make([]int32, n)
	d.witOff = make([]int32, n+2)
	d.cnt = make([]int32, n+1)
	d.ySum = make([]int64, n)
	d.yInf = make([]int32, n)
	d.yMax1 = make([]int32, n)
	d.yC1 = make([]int32, n)
	d.yMax2 = make([]int32, n)
	d.bnd = make([]int64, n)
	d.bndDone = graph.NewBitset(n)
	d.bndExact = graph.NewBitset(n)
	d.suspects = graph.NewBitset(n)
	d.rowp = make([][]int32, 0, n)
}

// deltaBegin opens a delta scan of agent u: it sizes the scratch, clears
// the query's bounds and, unless the kept preparation is u's on g's
// current version, drops it. Every scan starts here; the heavy
// neighbour-row preparation of deltaInit can then be deferred until a
// candidate actually needs it.
func (s *Scratch) deltaBegin(g graph.Store, u int) {
	d := &s.delta
	d.grow(g.N())
	d.bndDone.Reset()
	if d.prepFor == g && d.prepVer == g.AdjVersion() && d.prepU == u {
		return
	}
	d.prepFor, d.prepVer, d.prepU = g, g.AdjVersion(), u
	d.dn = g.N()
	d.minsReady = false
	for _, w := range d.rowTouched {
		d.rowIdx[w] = -1
	}
	d.rowTouched = d.rowTouched[:0]
	d.used = 0
}

// preparedRow returns the d_{G-u} row of w kept from a scan of mover u on
// g at AdjVersion ver, or nil if the scratch holds no such row.
func (d *deltaScratch) preparedRow(g graph.Store, ver uint64, u, w int) []int32 {
	if d.prepFor != g || d.prepVer != ver || d.prepU != u {
		return nil
	}
	return d.cachedRow(w)
}

// cachedRow returns the pooled d_{G-u} row of w, or nil if the scan has not
// computed it yet.
func (d *deltaScratch) cachedRow(w int) []int32 {
	if i := d.rowIdx[w]; i >= 0 {
		return d.pool[i][:d.dn]
	}
	return nil
}

// newRow claims a pool slot for w's row; the content is uninitialized.
func (d *deltaScratch) newRow(w int) []int32 {
	if d.used == len(d.pool) {
		d.pool = append(d.pool, make([]int32, d.n))
	}
	row := d.pool[d.used][:d.dn]
	d.rowIdx[w] = int32(d.used)
	d.used++
	d.rowTouched = append(d.rowTouched, int32(w))
	return row
}

// deltaInit prepares s for delta scans of agent u: it computes the
// distance rows of G-u for every current neighbour of u, the per-vertex
// minima over those rows, the witness buckets, and the current-cost
// aggregates. Target rows and aggregates are computed on demand. It is a
// no-op if it already ran for the scan's key (see deltaBegin), in this
// scan or an earlier one. The preparation reads the graph but never
// mutates it.
func (s *Scratch) deltaInit(g graph.Store, u int) {
	n := g.N()
	d := &s.delta
	if d.minsReady {
		return
	}
	d.minsReady = true
	s.nbrs = g.NeighborList(u, s.nbrs[:0])
	for v := 0; v < n; v++ {
		d.min1[v] = graph.Unreachable
		d.min2[v] = graph.Unreachable
		d.arg1[v] = -1
		d.pos[v] = -1
	}
	if s.oracle == nil && len(s.nbrs) > 2 && n >= deltaBatchMinN {
		// Without an oracle every neighbour row is a fresh search; one
		// batched kernel call propagates them all bit-parallel (the rows
		// land in the same vertex-indexed matrix deltaRow serves from).
		// Below the size threshold single-source searches are so cheap
		// that the kernel's per-call adjacency snapshot costs more than
		// the frontier work it batches.
		d.rowp = d.rowp[:0]
		for _, w := range s.nbrs {
			d.rowp = append(d.rowp, d.newRow(w))
		}
		g.BatchBFSExcluding(s.nbrs, u, d.rowp, nil, s.kernel())
	}
	for i, w := range s.nbrs {
		d.pos[w] = int32(i)
		row := s.deltaRow(g, u, w)
		for v, dv := range row {
			switch {
			case dv < d.min1[v]:
				d.min2[v] = d.min1[v]
				d.min1[v] = dv
				d.arg1[v] = int32(i)
			case dv < d.min2[v]:
				d.min2[v] = dv
			}
		}
	}
	// Witness buckets by counting sort over witness positions.
	deg := len(s.nbrs)
	cnt := d.cnt[: deg+1 : deg+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for v := 0; v < n; v++ {
		if v != u && d.arg1[v] >= 0 {
			cnt[d.arg1[v]]++
		}
	}
	off := d.witOff[: deg+2 : deg+2]
	off[0] = 0
	for i := 0; i <= deg; i++ {
		off[i+1] = off[i] + cnt[i]
	}
	for v := 0; v < n; v++ {
		if v != u && d.arg1[v] >= 0 {
			i := d.arg1[v]
			d.witBuf[off[i]] = int32(v)
			off[i]++
		}
	}
	for i := deg; i >= 0; i-- {
		off[i+1] = off[i]
	}
	off[0] = 0
	// Current-cost aggregates over a(v) = 1 + min1[v].
	d.curSum, d.curInf = 0, 0
	d.curMax1, d.curC1, d.curMax2 = 0, -2, 0
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		a := d.min1[v] + 1
		d.curSum += int64(a)
		cls := d.arg1[v]
		if a > d.curMax1 {
			if cls != d.curC1 {
				d.curMax2 = d.curMax1
				d.curC1 = cls
			}
			d.curMax1 = a
		} else if cls != d.curC1 && a > d.curMax2 {
			d.curMax2 = a
		}
	}
	if d.curSum >= unreachable {
		d.curInf = d.unreached(u, nil)
	}
}

// deltaRow returns d_{G-u}(w, .), computing and caching it on first use.
// With an oracle it is derived from the current-network row by partial
// repair: deleting u invalidates d(w,v) only when every shortest w-v path
// crosses u, i.e. d(w,u) + d(u,v) = d(w,v); the surviving entries reseed a
// PartialBFS over the damage. Without an oracle it is a fresh search.
func (s *Scratch) deltaRow(g graph.Store, u, w int) []int32 {
	d := &s.delta
	if row := d.cachedRow(w); row != nil {
		return row
	}
	row := d.newRow(w)
	if s.oracle == nil {
		g.BFSExcluding(w, u, row, s.bfs)
		return row
	}
	dw := s.oracle.Row(w)
	du := s.oracle.Row(u)
	base := dw[u]
	d.suspects.Reset()
	for v := 0; v < d.dn; v++ {
		if v == u {
			row[v] = graph.Unreachable
			continue
		}
		if base+du[v] == dw[v] {
			row[v] = graph.Unreachable
			d.suspects.Set(v)
		} else {
			row[v] = dw[v]
		}
	}
	g.PartialBFS(row, d.suspects, s.repair)
	return row
}

// deltaTarget ensures the row and aggregates of target y and returns its
// row. The aggregates are over f_y(v) = min(a(v), 1 + row_y(v)), v != u:
// exactly the distance profile of u after adding the edge {u,y}.
func (s *Scratch) deltaTarget(g graph.Store, u, y int) []int32 {
	d := &s.delta
	// A pooled row implies the aggregates are filled: targets are
	// non-neighbours, so only this function ever computes their rows.
	if row := d.cachedRow(y); row != nil {
		return row
	}
	row := s.deltaRow(g, u, y)
	s.deltaTargetAggr(u, y, row)
	return row
}

// deltaTargetAggr fills the post-add aggregates of target y from its
// d_{G-u} row. Factored out of deltaTarget so the batched landmark scan
// can aggregate rows it materializes outside the row pool.
func (s *Scratch) deltaTargetAggr(u, y int, row []int32) {
	d := &s.delta
	var sum int64
	m1, c1, m2 := int32(0), int32(-2), int32(0)
	for v, rv := range row {
		if v == u {
			continue
		}
		f := d.min1[v]
		if rv < f {
			f = rv
		}
		f++
		sum += int64(f)
		cls := d.arg1[v]
		if rv < d.min1[v] {
			// The target row is the effective minimum, so dropping a
			// neighbour cannot raise this vertex's distance.
			cls = -1
		}
		if f > m1 {
			if cls != c1 {
				m2 = m1
				c1 = cls
			}
			m1 = f
		} else if cls != c1 && f > m2 {
			m2 = f
		}
	}
	d.ySum[y], d.yInf[y] = sum, 0
	if sum >= unreachable {
		d.yInf[y] = d.unreached(u, row)
	}
	d.yMax1[y], d.yC1[y], d.yMax2[y] = m1, c1, m2
}

// unreachable is Unreachable as a SUM aggregate.
const unreachable = int64(graph.Unreachable)

// sumFinite converts a SUM aggregate with its count of unreachable
// vertices to cost semantics. Disconnection is decided by the count, never
// by the aggregate's size: a connected agent's distance sum passes
// Unreachable from n = 23170 on (the end of a 47000-vertex path sums to
// over 10^9). Each unreachable vertex adds at least Unreachable to the
// sum, so a smaller sum has none and the count need only be taken when
// the sum reaches it — which keeps the counting off the hot loops.
func sumFinite(sum int64, unreached int32) int64 {
	if unreached > 0 {
		return DistInf
	}
	return sum
}

// unreached counts the vertices v != u that u reaches through none of its
// neighbour rows and, if row is non-nil, not through that added target's
// G-u row either.
func (d *deltaScratch) unreached(u int, row []int32) int32 {
	var inf int32
	for v := 0; v < d.dn; v++ {
		if v != u && d.min1[v] >= graph.Unreachable && (row == nil || row[v] >= graph.Unreachable) {
			inf++
		}
	}
	return inf
}

// bucketUnreached counts the vertices of a witness bucket that turn
// unreachable once their witness is dropped: their fallback min2 and, if
// ry is non-nil, the added target's G-u row are both unreachable. Bucket
// vertices have a finite witness distance, so none of them was counted
// before the drop.
func (d *deltaScratch) bucketUnreached(bucket, ry []int32) int32 {
	var inf int32
	for _, v := range bucket {
		if d.min2[v] >= graph.Unreachable && (ry == nil || ry[v] >= graph.Unreachable) {
			inf++
		}
	}
	return inf
}

// maxFinite converts a MAX aggregate to cost semantics: an unreachable
// vertex lifts the maximum to at least Unreachable, which no finite
// eccentricity (below n) reaches.
func maxFinite(m int64) int64 {
	if m >= int64(graph.Unreachable) {
		return DistInf
	}
	return m
}

// deltaCurDist returns u's current distance cost.
func (s *Scratch) deltaCurDist(kind DistKind) int64 {
	d := &s.delta
	if kind == Sum {
		return sumFinite(d.curSum, d.curInf)
	}
	return maxFinite(int64(d.curMax1))
}

// deltaOracleCurDist returns u's current distance cost read from the
// oracle, identical to deltaCurDist but without needing deltaInit.
func (s *Scratch) deltaOracleCurDist(u int, kind DistKind) int64 {
	du := s.oracle.Row(u)
	var sum int64
	var inf, max int32
	for v, t := range du {
		if v == u {
			continue
		}
		if kind == Sum {
			sum += int64(t)
			if t >= graph.Unreachable {
				inf++
			}
		} else if t > max {
			max = t
		}
	}
	if kind == Max {
		return maxFinite(int64(max))
	}
	return sumFinite(sum, inf)
}

// deltaTargetBound returns a lower bound on u's distance cost after any
// single-edge change that adds the edge {u,y}, computed from the oracle's
// current-network distances without a search; ok is false without an
// oracle. The changed network G' = G - {u,x} + {u,y} is an edge-subgraph
// of G + {u,y}, whose distances from u are exactly
// min(d_G(u,v), 1 + d_G(y,v)) by the single-insertion rule, so that
// aggregate bounds every swap with target y from below — and scores a pure
// addition exactly.
//
// The aggregation stops early once the bound provably reaches limit,
// returning a sound but possibly truncated bound; pass a limit above any
// cost (e.g. > DistInf) to force the exact aggregate. Pruning callers pass
// their skip threshold so hopeless targets are dismissed after a few
// vertices.
func (s *Scratch) deltaTargetBound(u, y int, kind DistKind, limit int64) (int64, bool) {
	if s.oracle == nil {
		return 0, false
	}
	d := &s.delta
	if d.bndDone.Has(y) && (d.bndExact.Has(y) || d.bnd[y] >= limit) {
		return d.bnd[y], true
	}
	du := s.oracle.Row(u)
	dy := s.oracle.Row(y)
	n := d.dn
	var b int64
	exact := true
	if kind == Sum {
		// Every vertex contributes at least distance 1, so the running
		// sum plus the unprocessed count is already a valid lower bound;
		// it is checked between 32-vertex blocks to keep the inner loop
		// branch-light. The two segments skip v == u.
		sum := int64(0)
	sumLoop:
		for seg := 0; seg < 2; seg++ {
			lo, hi := 0, u
			if seg == 1 {
				lo, hi = u+1, n
			}
			for lo < hi {
				blk := lo + 32
				if blk > hi {
					blk = hi
				}
				for v := lo; v < blk; v++ {
					t := dy[v] + 1
					if du[v] < t {
						t = du[v]
					}
					sum += int64(t)
				}
				lo = blk
				rest := int64(n - blk)
				if seg == 0 {
					rest-- // u itself contributes nothing
				}
				if rest > 0 && sum+rest >= limit {
					sum += rest
					exact = false
					break sumLoop
				}
			}
		}
		b = sum
	} else {
		var max int32
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			t := dy[v] + 1
			if du[v] < t {
				t = du[v]
			}
			if t > max {
				max = t
				if int64(max) >= limit {
					exact = v == n-1
					break
				}
			}
		}
		b = int64(max)
	}
	if exact {
		if kind == Sum {
			b = sumFinite(b, s.oracleAddUnreached(u, y, b))
		} else {
			b = maxFinite(b)
		}
		d.bndExact.Set(y)
	} else {
		d.bndExact.Clear(y)
	}
	d.bnd[y] = b
	d.bndDone.Set(y)
	return b, true
}

// oracleAddUnreached counts the vertices that stay unreachable from u
// after adding the edge {u,y}, given the exact SUM aggregate of that
// addition (see sumFinite for why a smaller aggregate needs no count).
func (s *Scratch) oracleAddUnreached(u, y int, sum int64) int32 {
	if sum < unreachable {
		return 0
	}
	du := s.oracle.Row(u)
	dy := s.oracle.Row(y)
	var inf int32
	for v := range du {
		if v != u && du[v] >= graph.Unreachable && dy[v] >= graph.Unreachable {
			inf++
		}
	}
	return inf
}

// boundExact forces deltaTargetBound to aggregate without an early exit.
const boundExact = int64(1) << 62

// deltaPairBoundSum tightens a SUM target bound for a concrete drop x: the
// drop penalty Σ_{v in S_x} [min(min2, r) - min(min1, r)] is nondecreasing
// in the target row r, and the oracle row of y undercuts d_{G-u}(y, .), so
// adding the oracle-evaluated penalty to the exact add-cost bound still
// bounds the swap cost from below — without materializing y's row.
// deltaInit must have run; bound must be the exact (non-truncated) target
// bound of y.
func (s *Scratch) deltaPairBoundSum(u, x, y int, bound int64) int64 {
	d := &s.delta
	dy := s.oracle.Row(y)
	xi := d.pos[x]
	pen := int64(0)
	for _, v := range d.witBuf[d.witOff[xi]:d.witOff[xi+1]] {
		f0, f1, r := d.min1[v], d.min2[v], dy[v]
		if r < f0 {
			f0 = r
		}
		if r < f1 {
			f1 = r
		}
		pen += int64(f1 - f0)
	}
	return bound + pen
}

// deltaAddDist returns u's distance cost after adding the edge {u,y}. With
// an oracle installed the single-insertion rule scores it exactly without
// a search; otherwise it falls back to the target's G-u row.
func (s *Scratch) deltaAddDist(g graph.Store, u, y int, kind DistKind) int64 {
	if b, ok := s.deltaTargetBound(u, y, kind, boundExact); ok {
		return b
	}
	d := &s.delta
	s.deltaTarget(g, u, y)
	if kind == Sum {
		return sumFinite(d.ySum[y], d.yInf[y])
	}
	return maxFinite(int64(d.yMax1[y]))
}

// deltaDropDist returns u's distance cost after removing the edge {u,x}.
func (s *Scratch) deltaDropDist(x int, kind DistKind) int64 {
	d := &s.delta
	xi := d.pos[x]
	bucket := d.witBuf[d.witOff[xi]:d.witOff[xi+1]]
	if kind == Sum {
		sum := d.curSum
		for _, v := range bucket {
			sum += int64(d.min2[v] - d.min1[v])
		}
		var inf int32
		if sum >= unreachable {
			inf = d.curInf + d.bucketUnreached(bucket, nil)
		}
		return sumFinite(sum, inf)
	}
	m := d.curMax1
	if d.curC1 == xi {
		m = d.curMax2
	}
	for _, v := range bucket {
		if f := d.min2[v] + 1; f > m {
			m = f
		}
	}
	return maxFinite(int64(m))
}

// deltaSwapDist returns u's distance cost after swapping the edge {u,x}
// for {u,y}.
func (s *Scratch) deltaSwapDist(g graph.Store, u, x, y int, kind DistKind) int64 {
	return s.deltaSwapScore(x, y, s.deltaTarget(g, u, y), kind)
}

// deltaSwapScore scores the swap (drop x, add y) from y's d_{G-u} row and
// its already-filled aggregates. Factored out of deltaSwapDist so the
// batched landmark scan shares the exact same bucket-correction math.
func (s *Scratch) deltaSwapScore(x, y int, ry []int32, kind DistKind) int64 {
	d := &s.delta
	xi := d.pos[x]
	bucket := d.witBuf[d.witOff[xi]:d.witOff[xi+1]]
	if kind == Sum {
		sum := d.ySum[y]
		for _, v := range bucket {
			f0, f1, rv := d.min1[v], d.min2[v], ry[v]
			if rv < f0 {
				f0 = rv
			}
			if rv < f1 {
				f1 = rv
			}
			sum += int64(f1 - f0)
		}
		var inf int32
		if sum >= unreachable {
			inf = d.yInf[y] + d.bucketUnreached(bucket, ry)
		}
		return sumFinite(sum, inf)
	}
	m := d.yMax1[y]
	if d.yC1[y] == xi {
		m = d.yMax2[y]
	}
	for _, v := range bucket {
		f := d.min2[v]
		if rv := ry[v]; rv < f {
			f = rv
		}
		if f++; f > m {
			m = f
		}
	}
	return maxFinite(int64(m))
}
