package graph

// Landmarks is a k-landmark distance oracle: exact BFS rows from k
// landmark vertices chosen by farthest-point sampling. Any query distance
// d(y,v) is bracketed by the triangle inequality through each landmark ℓ,
//
//	|d(ℓ,y) - d(ℓ,v)|  <=  d(y,v)  <=  d(ℓ,y) + d(ℓ,v),
//
// which is what candidate filters build sound move-cost bounds from. The
// oracle stores k rows of n int32 distances — O(kn) memory, against the
// O(n²) of the all-pairs cache — in a Rows, whose Apply keeps them exact
// across moves.
//
// Selection runs farthest-point sampling — each next landmark is the vertex
// maximizing the distance to the chosen set, ties to the smaller index, so
// selection is deterministic. Each pick's one single-source kernel search
// writes the landmark's row and aggregates in place, so the k searches of
// the sampling are the whole build. A Landmarks is not safe for concurrent
// mutation; concurrent reads of the rows are fine.
type Landmarks struct {
	// Rows holds the landmark rows; Apply repairs them and keeps the ids:
	// repair maintains the rows of the original sample.
	Rows
	// minD is the sampling's distance to the chosen set.
	minD []int32
}

// BuildLandmarks selects k landmarks on g by farthest-point sampling and
// builds their exact distance rows. k is clamped to [1, n]. s, if non-nil,
// is the batch kernel scratch to run the searches on (letting callers share
// one arena); nil allocates a private one.
func BuildLandmarks(g Store, k int, s *BatchBFSScratch) *Landmarks {
	lm := &Landmarks{Rows: Rows{batch: s}}
	lm.Rebuild(g, k)
	return lm
}

// Rebuild re-selects the landmarks and recomputes every row for the current
// content of g, reusing the oracle's arenas when the size still fits.
func (lm *Landmarks) Rebuild(g Store, k int) {
	n := g.N()
	k = max(1, min(k, n))
	lm.src = lm.src[:0]
	if n == 0 {
		lm.grow(0, 0)
		return
	}
	if len(lm.minD) < n {
		lm.minD = make([]int32, n)
	}
	lm.grow(n, k)
	clear(lm.top)
	minD := lm.minD[:n]
	FillUnreachable(minD)
	// First landmark: a maximum-degree vertex (smallest index on ties) —
	// a deterministic, central start for the sampling.
	pick := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(pick) {
			pick = v
		}
	}
	// Farthest-point sampling: one single-source kernel search per pick,
	// straight into the pick's row and aggregates, folded into the running
	// min-distance-to-chosen-set array. The CSR snapshot is cached across
	// these calls (the graph does not mutate), so each pick costs one
	// search, not one snapshot rebuild.
	for i := 0; i < k; i++ {
		if i > 0 {
			bestD := int64(-1)
			for v := 0; v < n; v++ {
				dv := int64(minD[v])
				if dv >= int64(Unreachable) {
					// Unreached vertices are infinitely far: sampling
					// jumps into uncovered components first.
					dv = int64(Unreachable) + int64(n-v)
				}
				if dv > bestD {
					pick, bestD = v, dv
				}
			}
		}
		lm.src = append(lm.src, pick)
		row := lm.Row(i)
		lm.rowp = append(lm.rowp[:0], row)
		g.BatchBFS(lm.src[i:], lm.rowp, lm.agg[i:i+1], lm.batch)
		for v, d := range row {
			minD[v] = min(minD[v], d)
		}
	}
}

// ID returns the vertex id of landmark i.
func (lm *Landmarks) ID(i int) int { return lm.src[i] }

// Complete reports that every landmark row covers the whole graph, i.e. the
// network is connected. Bound-based filters require it: on an incomplete
// oracle, Unreachable sentinels would poison the triangle bounds.
func (lm *Landmarks) Complete() bool {
	for i := range lm.src {
		if lm.agg[i].Reached < lm.n {
			return false
		}
	}
	return lm.K() > 0
}
