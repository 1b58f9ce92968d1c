package game

import (
	"ncg/internal/graph"
)

// Landmark-based candidate filtering for swap scans.
//
// Without a full distance oracle, a swap scan must materialize a G-u row per
// candidate target — O(n) kernel work each, n targets, so O(n²) per agent.
// A k-landmark oracle (see graph.Landmarks) replaces most of that work with
// O(k) arithmetic per target: the triangle inequality turns the landmark
// rows into lower bounds on post-move distances, any target whose bound
// cannot beat the incumbent is dismissed without a search, and the few
// survivors are re-scored exactly. Pruning on a sound lower bound with the
// same strict thresholds the exact scan uses keeps the surviving move set —
// and therefore trajectories, cycle verdicts and record streams —
// bit-identical to exact mode.
//
// The bounds. A swap of agent u that installs the edge {u,y} yields
// G' = G - {u,x} + {u,y}, an edge-subgraph of G + {u,y}; by the
// single-insertion rule
//
//	d_{G'}(u,v) >= min(a_v, 1 + d_G(y,v)),   a_v = d_G(u,v),
//
// and the landmark rows b_l bound d_G(y,v) >= |b_l[y] - b_l[v]| from below.
//
// For SUM costs the per-vertex gain of target y is
// max(0, a_v - 1 - d_G(y,v)), nonincreasing in d_G(y,v), so each landmark
// and each sign of the absolute value yields the upper bound
// max(0, c_v + t) with c_v = a_v - 1 - b_l[v] at t = +b_l[y], respectively
// c'_v = a_v - 1 + b_l[v] at t = -b_l[y]. Summed over v this is
//
//	G(t) = sufSum(1-t) + t * sufCnt(1-t),
//
// where sufCnt/sufSum aggregate the c-values >= 1-t — two suffix tables per
// landmark, built once per scan in O(n), queried per target in O(1). The
// bound on u's post-move sum is curSum minus the smallest G(t) over all
// landmarks and both signs (and never below n-1).
//
// For MAX costs a small witness set W of maximal-a_v vertices gives
//
//	ecc' >= max_{w in W} min(a_w, 1 + max_l |b_l[w] - b_l[y]|),
//
// O(k*|W|) per target.
type lmScratch struct {
	n int
	k int
	// a holds the exact current distances d_G(u, .) of the scanned agent.
	a []int32
	// curSum and curEcc are the aggregates of a (valid when armed).
	curSum int64
	curEcc int64
	// SUM suffix tables, k*n each: cntP/sumP aggregate c = a-1-b over
	// c >= tau for the query window tau in [2-n, 1] (index tau+n-2);
	// cntM/sumM aggregate c' = a-1+b over c' >= tau for tau in [1, n]
	// (index tau-1).
	cntP []int32
	sumP []int64
	cntM []int32
	sumM []int64
	// hist is the shared histogram buffer of the table builds.
	hist []int32
	// MAX witnesses: vertex ids, their a-values, and their landmark rows
	// gathered contiguously (wb[w*k+l] = b_l[wit[w]]).
	wit []int32
	wa  []int32
	wb  []int32
	// Batched exact-scoring state (see lmBatchScores): rows is the
	// lmChunk-wide target-row arena the batched kernel writes into, rowp
	// its per-call slice header, srcs/tis the pending chunk's targets and
	// their positions in buf2.
	rows [][]int32
	rowp [][]int32
	srcs []int
	tis  []int32
}

// lmWitnesses is the witness-set size of the MAX bound.
const lmWitnesses = 8

func (l *lmScratch) grow(n, k int) {
	if l.n >= n && l.k >= k {
		return
	}
	if n > l.n {
		l.n = n
	}
	if k > l.k {
		l.k = k
	}
	l.a = make([]int32, l.n)
	l.cntP = make([]int32, l.k*l.n)
	l.sumP = make([]int64, l.k*l.n)
	l.cntM = make([]int32, l.k*l.n)
	l.sumM = make([]int64, l.k*l.n)
	l.hist = make([]int32, 3*l.n+2)
	l.wit = make([]int32, 0, lmWitnesses)
	l.wa = make([]int32, 0, lmWitnesses)
	l.wb = make([]int32, lmWitnesses*l.k)
}

// SetLandmarks installs (or, with nil, removes) a landmark oracle on s. The
// oracle MUST reflect the scanned network exactly whenever a scan runs;
// callers that mutate the network must repair it (Landmarks.Apply) before
// the next scan or clear it. The filter only ever prunes — scans without it
// return the same moves, just slower — and arms itself only when the oracle
// is complete and the scanned agent reaches the whole graph.
func (s *Scratch) SetLandmarks(lm *graph.Landmarks) { s.lmk = lm }

// lmProbe arms the landmark filter for a scan of agent u from a fresh
// single-source search, without touching the neighbour rows: it fills the
// current distances, checks connectivity, and builds the per-scan tables.
// It reports whether the filter is armed; on false the caller must fall
// back to an unfiltered scan.
func (s *Scratch) lmProbe(g graph.Store, u int, kind DistKind) bool {
	if !s.lmk.Complete() || s.lmk.N() != g.N() {
		return false
	}
	l := &s.lm
	l.grow(g.N(), s.lmk.K())
	res := g.BFS(u, l.a, s.bfs)
	if res.Reached < g.N() {
		return false
	}
	l.curSum = res.Sum
	l.curEcc = int64(res.Ecc)
	s.lmBuild(u, kind)
	return true
}

// lmArm arms the landmark filter for a scan whose deltaInit already ran:
// the current distances are read off the neighbour minima (a_v = min1_v+1).
// It reports whether the filter is armed. A one-agent network has no
// candidate to prune, and lmBuild's SUM windows need two agents.
func (s *Scratch) lmArm(u int, kind DistKind) bool {
	if !s.lmk.Complete() || s.lmk.N() != s.delta.dn || s.delta.dn < 2 {
		return false
	}
	d := &s.delta
	l := &s.lm
	l.grow(d.dn, s.lmk.K())
	for v := 0; v < d.dn; v++ {
		if v == u {
			continue
		}
		m := d.min1[v]
		if m >= graph.Unreachable {
			return false
		}
		l.a[v] = m + 1
	}
	l.a[u] = 0
	l.curSum = d.curSum
	l.curEcc = int64(d.curMax1)
	s.lmBuild(u, kind)
	return true
}

// lmBuild constructs the per-scan tables of the armed filter: the SUM
// suffix tables per landmark, or the MAX witness set. The a-values and
// aggregates must already be in place.
func (s *Scratch) lmBuild(u int, kind DistKind) {
	l := &s.lm
	n := s.lmk.N()
	k := s.lmk.K()
	if kind == Max {
		l.wit = l.wit[:0]
		l.wa = l.wa[:0]
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			av := l.a[v]
			if len(l.wa) < lmWitnesses {
				l.wit = append(l.wit, int32(v))
				l.wa = append(l.wa, av)
				continue
			}
			// Replace the smallest witness if v beats it.
			mi, mv := 0, l.wa[0]
			for i := 1; i < lmWitnesses; i++ {
				if l.wa[i] < mv {
					mi, mv = i, l.wa[i]
				}
			}
			if av > mv {
				l.wit[mi] = int32(v)
				l.wa[mi] = av
			}
		}
		for w, v := range l.wit {
			for i := 0; i < k; i++ {
				l.wb[w*k+i] = s.lmk.Row(i)[v]
			}
		}
		return
	}
	// SUM: two suffix tables per landmark over the shifted gain slopes.
	// Window indices: side + covers tau in [2-n, 1] at tau+n-2, side -
	// covers tau in [1, n] at tau-1; c-values above a window fold into
	// the running suffix before the window is written.
	for i := 0; i < k; i++ {
		b := s.lmk.Row(i)
		cntP := l.cntP[i*l.n : i*l.n+n]
		sumP := l.sumP[i*l.n : i*l.n+n]
		cntM := l.cntM[i*l.n : i*l.n+n]
		sumM := l.sumM[i*l.n : i*l.n+n]

		// Side +: c = a-1-b in [-(n-1), n-2]; histogram at c+n.
		hist := l.hist[:2*n]
		for j := range hist {
			hist[j] = 0
		}
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			hist[int(l.a[v])-1-int(b[v])+n]++
		}
		var rc, rs int64
		// Fold values c > 1 (histogram indices above 1+n), then write the
		// window from tau = 1 (index n-1) down to tau = 2-n (index 0).
		for c := 2*n - 1 - n; c > 1; c-- {
			h := int64(hist[c+n])
			rc += h
			rs += h * int64(c)
		}
		for tau := 1; tau >= 2-n; tau-- {
			h := int64(hist[tau+n])
			rc += h
			rs += h * int64(tau)
			cntP[tau+n-2] = int32(rc)
			sumP[tau+n-2] = rs
		}

		// Side -: c' = a-1+b in [0, 2n-3]; histogram at c'.
		hist = l.hist[:2*n]
		for j := range hist {
			hist[j] = 0
		}
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			hist[int(l.a[v])-1+int(b[v])]++
		}
		rc, rs = 0, 0
		for c := 2*n - 2; c > n; c-- {
			h := int64(hist[c])
			rc += h
			rs += h * int64(c)
		}
		for tau := n; tau >= 1; tau-- {
			h := int64(hist[tau])
			rc += h
			rs += h * int64(tau)
			cntM[tau-1] = int32(rc)
			sumM[tau-1] = rs
		}
	}
}

// lmTargetBound returns a lower bound on u's distance cost after any
// single-edge swap that adds the edge {u,y}, computed from the armed
// landmark filter in O(k) (SUM) respectively O(k*|W|) (MAX) time. The bound
// is cached per target for the duration of the scan.
func (s *Scratch) lmTargetBound(y int, kind DistKind) int64 {
	d := &s.delta
	if d.bndDone.Has(y) {
		return d.bnd[y]
	}
	l := &s.lm
	n := s.lmk.N()
	k := s.lmk.K()
	var b int64
	if kind == Sum {
		gain := int64(1) << 62
		for i := 0; i < k; i++ {
			t := int64(s.lmk.Row(i)[y])
			// Side +: tau = 1-t at window index n-1-t.
			j := i*l.n + n - 1 - int(t)
			if g := l.sumP[j] + t*int64(l.cntP[j]); g < gain {
				gain = g
			}
			// Side -: tau = 1+t at window index t.
			j = i*l.n + int(t)
			if g := l.sumM[j] - t*int64(l.cntM[j]); g < gain {
				gain = g
			}
		}
		b = l.curSum - gain
		if min := int64(n - 1); b < min {
			b = min
		}
	} else {
		for w := range l.wit {
			row := l.wb[w*k : w*k+k]
			var dlb int32
			for i := 0; i < k; i++ {
				diff := row[i] - s.lmk.Row(i)[y]
				if diff < 0 {
					diff = -diff
				}
				if diff > dlb {
					dlb = diff
				}
			}
			c := l.wa[w]
			if dlb+1 < c {
				c = dlb + 1
			}
			if int64(c) > b {
				b = int64(c)
			}
		}
	}
	d.bnd[y] = b
	d.bndDone.Set(y)
	d.bndExact.Set(y)
	return b
}

// lmChunk is the source-group width of the batched target-row
// materialization: one bit-parallel kernel group per chunk.
const lmChunk = 64

// lmMaxScoreEntries caps the memoized score matrix (drop candidates x
// targets) of a batched scan; above it the scan falls back to lazy
// per-target rows rather than allocate an unbounded buffer.
const lmMaxScoreEntries = 1 << 25

// ensureRows sizes the target-row arena for dn-vertex rows.
func (l *lmScratch) ensureRows(dn int) {
	if len(l.rows) == lmChunk && cap(l.rows[0]) >= dn {
		return
	}
	l.rows = make([][]int32, lmChunk)
	for i := range l.rows {
		l.rows[i] = make([]int32, dn)
	}
}

// lmBatchScores exactly scores every target whose armed landmark bound
// stays below limit against every drop candidate, and memoizes the scores
// in s.score (indexed xi*len(buf2)+yi, matching swapScan's loop). A fold's
// limit only tightens during a scan, so every pair the loop scores has a
// memoized entry. The survivors' G-u rows are materialized in
// lmChunk-wide groups through the batched kernel — the per-row cost the
// lazy path pays once per surviving target, amortized 64-fold — and are
// not pooled, so scratch memory stays O(n) however many targets survive.
// Reports whether the memo is armed; deltaInit must have run.
func (s *Scratch) lmBatchScores(g graph.Store, u int, kind DistKind, limit int64) bool {
	d := &s.delta
	deg, nt := len(s.buf), len(s.buf2)
	if deg == 0 || nt == 0 || d.dn < deltaBatchMinN || deg*nt > lmMaxScoreEntries {
		return false
	}
	l := &s.lm
	if cap(s.score) < deg*nt {
		s.score = make([]int64, deg*nt)
	}
	s.score = s.score[:deg*nt]
	l.ensureRows(d.dn)
	l.srcs = l.srcs[:0]
	l.tis = l.tis[:0]
	for ti, y := range s.buf2 {
		if s.lmTargetBound(y, kind) >= limit {
			continue
		}
		l.srcs = append(l.srcs, y)
		l.tis = append(l.tis, int32(ti))
		if len(l.srcs) == lmChunk {
			s.lmFlushScores(g, u, kind, nt)
		}
	}
	s.lmFlushScores(g, u, kind, nt)
	return true
}

// lmFlushScores materializes the pending chunk's target rows and fills
// their score-matrix columns, then clears the chunk.
func (s *Scratch) lmFlushScores(g graph.Store, u int, kind DistKind, nt int) {
	l := &s.lm
	if len(l.srcs) == 0 {
		return
	}
	d := &s.delta
	rows := l.rowp[:0]
	for i := range l.srcs {
		rows = append(rows, l.rows[i][:d.dn])
	}
	l.rowp = rows
	g.BatchBFSExcluding(l.srcs, u, rows, nil, s.kernel())
	for i, y := range l.srcs {
		s.deltaTargetAggr(u, y, rows[i])
		ti := int(l.tis[i])
		for xi, x := range s.buf {
			s.score[xi*nt+ti] = s.deltaSwapScore(x, y, rows[i], kind)
		}
	}
	l.srcs = l.srcs[:0]
	l.tis = l.tis[:0]
}

// lmAnyImproving offers a probe fold the (drop, add) pairs of the armed
// scan whose targets' bounds stay below the fold's limit, batching their
// rows in lmChunk-wide kernel groups; the fold stops it at the first
// improving pair (chunk granularity). Like the lazy probe path it defers
// deltaInit until some target survives its bound, so a happy agent whose
// bound dismisses everything is certified without a neighbour row.
func (s *Scratch) lmAnyImproving(g graph.Store, u int, kind DistKind, f *fold) {
	d := &s.delta
	l := &s.lm
	l.srcs = l.srcs[:0]
	for lo := 0; lo < len(s.buf2); {
		for ; lo < len(s.buf2) && len(l.srcs) < lmChunk; lo++ {
			y := s.buf2[lo]
			if !f.prunesDist(s.lmTargetBound(y, kind)) {
				l.srcs = append(l.srcs, y)
			}
		}
		if len(l.srcs) == 0 {
			continue
		}
		s.deltaInit(g, u)
		l.ensureRows(d.dn)
		rows := l.rowp[:0]
		for i := range l.srcs {
			rows = append(rows, l.rows[i][:d.dn])
		}
		l.rowp = rows
		g.BatchBFSExcluding(l.srcs, u, rows, nil, s.kernel())
		for i, y := range l.srcs {
			s.deltaTargetAggr(u, y, rows[i])
			for _, x := range s.buf {
				if !f.offer(Cost{Dist: s.deltaSwapScore(x, y, rows[i], kind)}, []int{x}, []int{y}) {
					return
				}
			}
		}
		l.srcs = l.srcs[:0]
	}
}
