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
// selection is deterministic — and then builds all k rows with the 64-source
// batch kernel in ⌈k/64⌉ passes. A Landmarks is not safe for concurrent
// mutation; concurrent reads of the rows are fine.
type Landmarks struct {
	// Rows holds the landmark rows; Apply repairs them and keeps the ids:
	// repair maintains the rows of the original sample.
	Rows
	// selection arenas.
	sample []int
	minD   []int32
	tmp    []int32
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
	if n == 0 {
		lm.search(g, nil)
		return
	}
	if len(lm.minD) < n {
		lm.minD = make([]int32, n)
		lm.tmp = make([]int32, n)
	}
	lm.grow(n, 1)
	// First landmark: a maximum-degree vertex (smallest index on ties) —
	// a deterministic, central start for the sampling.
	l0 := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(l0) {
			l0 = v
		}
	}
	lm.sample = append(lm.sample[:0], l0)
	// Farthest-point sampling: one single-source kernel search per pick,
	// keeping only the running min-distance-to-chosen-set array. The CSR
	// snapshot is cached across these calls (the graph does not mutate),
	// so each pick costs one search, not one snapshot rebuild.
	minD, tmp := lm.minD[:n], lm.tmp[:n]
	rowp := [1][]int32{tmp}
	g.BatchBFS(lm.sample, rowp[:], lm.res[:1], lm.batch)
	copy(minD, tmp)
	for len(lm.sample) < k {
		best, bestD := -1, int64(-1)
		for v := 0; v < n; v++ {
			dv := int64(minD[v])
			if dv >= int64(Unreachable) {
				// Unreached vertices are infinitely far: sampling jumps
				// into uncovered components first.
				dv = int64(Unreachable) + int64(n-v)
			}
			if dv > bestD {
				best, bestD = v, dv
			}
		}
		lm.sample = append(lm.sample, best)
		g.BatchBFS(lm.sample[len(lm.sample)-1:], rowp[:], lm.res[:1], lm.batch)
		for v := 0; v < n; v++ {
			minD[v] = min(minD[v], tmp[v])
		}
	}
	lm.search(g, lm.sample)
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
