package graph

// Landmarks is a k-landmark distance oracle: exact BFS rows from k
// landmark vertices chosen by farthest-point sampling. Any query distance
// d(y,v) is bracketed by the triangle inequality through each landmark ℓ,
//
//	|d(ℓ,y) - d(ℓ,v)|  <=  d(y,v)  <=  d(ℓ,y) + d(ℓ,v),
//
// which is what candidate filters build sound move-cost bounds from. The
// oracle stores k rows of n int32 distances — O(kn) memory, against the
// O(n²) of the all-pairs cache — and keeps them exact across single-edge
// mutations by incremental repair: an inserted edge propagates distance
// decreases from its endpoints, a deleted edge invalidates exactly the
// entries whose every shortest path crossed it (found by a shortest-path-DAG
// descent from the farther endpoint) and settles them with PartialBFS from
// the survivors. Rows damaged beyond n/2 are cheaper to re-search outright
// and are collected into one batched BFS pass.
//
// Selection runs farthest-point sampling — each next landmark is the vertex
// maximizing the distance to the chosen set, ties to the smaller index, so
// selection is deterministic — and then builds all k rows with the 64-source
// batch kernel in ⌈k/64⌉ passes. A Landmarks is not safe for concurrent
// mutation; concurrent reads of the rows are fine.
type Landmarks struct {
	k    int
	n    int
	ids  []int
	rows []int32 // k x n row-major: rows[i*n+v] = d(ids[i], v)
	// reached is the per-row component size; Complete reports all rows
	// cover the graph, the precondition for bound-based filtering.
	reached []int
	// selection and repair arenas.
	minD    []int32
	tmp     []int32
	suspect Bitset
	dmg     []int32
	queue   []int32
	refresh []int
	idBuf   []int
	// nbrA/nbrB are the neighbour-list buffers of the repair loops (two
	// levels of nesting: DAG descent over nbrA probing predecessors into
	// nbrB), backend-neutral via AppendNeighbors32.
	nbrA   []int32
	nbrB   []int32
	rowp   [][]int32
	res    []BFSResult
	repair *RepairScratch
	batch  *BatchBFSScratch
	ownBat bool
}

// BuildLandmarks selects k landmarks on g by farthest-point sampling and
// builds their exact distance rows. k is clamped to [1, n]. s, if non-nil,
// is the batch kernel scratch to run the searches on (letting callers share
// one arena); nil allocates a private one.
func BuildLandmarks(g Store, k int, s *BatchBFSScratch) *Landmarks {
	lm := &Landmarks{}
	if s != nil {
		lm.batch = s
	}
	lm.Rebuild(g, k)
	return lm
}

// Rebuild re-selects the landmarks and recomputes every row for the current
// content of g, reusing the oracle's arenas when the size still fits.
func (lm *Landmarks) Rebuild(g Store, k int) {
	n := g.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n == 0 {
		k = 0
	}
	lm.grow(n, k)
	lm.k = k
	lm.n = n
	if k == 0 {
		return
	}
	// First landmark: a maximum-degree vertex (smallest index on ties) —
	// a deterministic, central start for the sampling.
	l0 := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(l0) {
			l0 = v
		}
	}
	lm.ids[0] = l0
	// Farthest-point sampling: one single-source kernel search per pick,
	// keeping only the running min-distance-to-chosen-set array. The CSR
	// snapshot is cached across these calls (the graph does not mutate),
	// so each pick costs one search, not one snapshot rebuild.
	minD, tmp := lm.minD[:n], lm.tmp[:n]
	src := [1]int{l0}
	rowp := [1][]int32{tmp}
	res := lm.res[:1]
	g.BatchBFS(src[:], rowp[:], res, lm.batch)
	copy(minD, tmp)
	for i := 1; i < k; i++ {
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
		lm.ids[i] = best
		src[0] = best
		g.BatchBFS(src[:], rowp[:], res, lm.batch)
		for v := 0; v < n; v++ {
			if tmp[v] < minD[v] {
				minD[v] = tmp[v]
			}
		}
	}
	// Row build: all k sources through the batch kernel, ⌈k/64⌉ passes.
	rows := lm.rowp[:0]
	for i := 0; i < k; i++ {
		rows = append(rows, lm.Row(i))
	}
	lm.rowp = rows
	g.BatchBFS(lm.ids[:k], rows, lm.res[:k], lm.batch)
	for i := 0; i < k; i++ {
		lm.reached[i] = lm.res[i].Reached
	}
}

func (lm *Landmarks) grow(n, k int) {
	if lm.batch == nil {
		lm.batch = NewBatchBFSScratch(n)
		lm.ownBat = true
	}
	if lm.repair == nil {
		lm.repair = NewRepairScratch(n)
	} else {
		lm.repair.grow(n)
	}
	if cap(lm.rows) < k*n {
		lm.rows = make([]int32, k*n)
	}
	lm.rows = lm.rows[:k*n]
	if cap(lm.ids) < k {
		lm.ids = make([]int, k)
		lm.reached = make([]int, k)
		lm.res = make([]BFSResult, k)
	}
	lm.ids = lm.ids[:k]
	lm.reached = lm.reached[:k]
	lm.res = lm.res[:k]
	if len(lm.minD) < n {
		lm.minD = make([]int32, n)
		lm.tmp = make([]int32, n)
		lm.suspect = NewBitset(n)
	}
}

// K returns the number of landmarks.
func (lm *Landmarks) K() int { return lm.k }

// N returns the vertex count the rows cover.
func (lm *Landmarks) N() int { return lm.n }

// ID returns the vertex id of landmark i.
func (lm *Landmarks) ID(i int) int { return lm.ids[i] }

// Row returns the exact distance row of landmark i; the caller must not
// modify it.
func (lm *Landmarks) Row(i int) []int32 { return lm.rows[i*lm.n : (i+1)*lm.n] }

// Complete reports that every landmark row covers the whole graph, i.e. the
// network is connected. Bound-based filters require it: on an incomplete
// oracle, Unreachable sentinels would poison the triangle bounds.
func (lm *Landmarks) Complete() bool {
	for _, r := range lm.reached {
		if r < lm.n {
			return false
		}
	}
	return lm.k > 0
}

// Apply folds an applied move of agent u into the rows: the edges {u,x},
// x ∈ drop, were removed and {u,y}, y ∈ add, inserted, and g is already the
// post-move network. Single-drop-single-add deltas (every swap) repair
// incrementally; larger deltas re-search the rows outright. Landmark ids are
// kept: repair maintains the rows of the original sample.
func (lm *Landmarks) Apply(g Store, u int, drop, add []int) {
	if len(drop) > 1 || len(add) > 1 {
		lm.refreshAll(g)
		return
	}
	lm.refresh = lm.refresh[:0]
	if len(drop) == 1 {
		if len(add) == 1 {
			// Repair in chronological order — removal first, insertion
			// second — by temporarily lifting the inserted edge out of the
			// graph, so the drop repair runs on exactly the intermediate
			// network it models. Mixing the phases is unsound: a drop
			// repair over the post-insertion network settles damaged
			// entries through the new edge while survivors keep stale
			// pre-insertion values, and the later decrease propagation
			// cannot tell the two apart. The transient remove/add pair
			// fires any installed graph observer symmetrically, which
			// state fingerprints cancel exactly.
			y := add[0]
			owner := g.Owner(u, y)
			other := u
			if owner == u {
				other = y
			}
			g.RemoveEdge(u, y)
			lm.dropRepair(g, u, drop[0])
			g.AddEdge(owner, other)
		} else {
			lm.dropRepair(g, u, drop[0])
		}
	}
	if len(add) == 1 {
		for i := 0; i < lm.k; i++ {
			if !lm.queued(i) {
				lm.addRepair(g, i, u, add[0])
			}
		}
	}
	lm.flushRefresh(g)
}

// queued reports whether row i awaits a batched full re-search.
func (lm *Landmarks) queued(i int) bool {
	for _, j := range lm.refresh {
		if j == i {
			return true
		}
	}
	return false
}

// refreshAll re-searches every row on the current network, keeping the ids.
func (lm *Landmarks) refreshAll(g Store) {
	lm.refresh = lm.refresh[:0]
	for i := 0; i < lm.k; i++ {
		lm.refresh = append(lm.refresh, i)
	}
	lm.flushRefresh(g)
}

// flushRefresh re-searches the queued rows in one batched kernel pass.
func (lm *Landmarks) flushRefresh(g Store) {
	if len(lm.refresh) == 0 {
		return
	}
	lm.rowp = lm.rowp[:0]
	ids := lm.idBuf[:0]
	for _, i := range lm.refresh {
		lm.rowp = append(lm.rowp, lm.Row(i))
		ids = append(ids, lm.ids[i])
	}
	lm.idBuf = ids
	res := lm.res[:len(lm.refresh)]
	g.BatchBFS(ids, lm.rowp, res, lm.batch)
	for j, i := range lm.refresh {
		lm.reached[i] = res[j].Reached
	}
	lm.refresh = lm.refresh[:0]
}

// dropRepair folds the removal of edge {u,x} into every row; g must already
// lack the edge and otherwise equal the network the rows describe.
//
// Per row (source ℓ, old distances b): removing {u,x} can only move entries
// if the edge lay on a shortest-path DAG of ℓ, i.e. |b[u]-b[x]| = 1. Entry v
// is damaged iff every shortest path from ℓ to v crossed the edge, which the
// descent detects level by level: a vertex is damaged iff all its DAG
// predecessors are damaged (the removed edge itself never counts as a
// surviving predecessor — it is already absent from g, so enumeration never
// yields it). Damaged entries are invalidated and settled by PartialBFS from
// the survivors.
func (lm *Landmarks) dropRepair(g Store, u, x int) {
	n := lm.n
	for i := 0; i < lm.k; i++ {
		b := lm.Row(i)
		bu, bx := b[u], b[x]
		if bu == bx {
			continue // the edge was on no shortest-path DAG of ℓ
		}
		q := x
		if bx < bu {
			q = u
		}
		// predOK reports a surviving (not-damaged) DAG predecessor of w.
		predOK := func(w int, lvl int32) bool {
			lm.nbrB = g.AppendNeighbors32(w, lm.nbrB[:0])
			for _, z := range lm.nbrB {
				if b[z] == lvl-1 && !lm.suspect.Has(int(z)) {
					return true
				}
			}
			return false
		}
		lm.suspect.Reset()
		if predOK(q, b[q]) {
			continue // q keeps a shortest path; nothing downstream moved
		}
		lm.dmg = lm.dmg[:0]
		lm.suspect.Set(q)
		lm.dmg = append(lm.dmg, int32(q))
		for head := 0; head < len(lm.dmg); head++ {
			z := int(lm.dmg[head])
			lvl := b[z]
			lm.nbrA = g.AppendNeighbors32(z, lm.nbrA[:0])
			for _, w32 := range lm.nbrA {
				w := int(w32)
				if b[w] != lvl+1 || lm.suspect.Has(w) {
					continue
				}
				if !predOK(w, b[w]) {
					lm.suspect.Set(w)
					lm.dmg = append(lm.dmg, int32(w))
				}
			}
		}
		if len(lm.dmg) > n/2 {
			lm.refresh = append(lm.refresh, i)
			continue
		}
		for _, w := range lm.dmg {
			b[w] = Unreachable
		}
		g.PartialBFS(b, lm.suspect, lm.repair)
		for _, w := range lm.dmg {
			if b[w] >= Unreachable {
				lm.reached[i]--
			}
		}
	}
}

// addRepair folds the insertion of edge {a,c} into row i by decrease
// propagation over the post-move network: relax across the new edge, then
// breadth-first relax out of every improved vertex. Sound from any
// entrywise upper bound that is exact on every vertex owning a shortest
// path avoiding the new edge — which both d(pre-move) and the dropRepair
// output are — and exact on termination.
func (lm *Landmarks) addRepair(g Store, i, a, c int) {
	b := lm.Row(i)
	lm.queue = lm.queue[:0]
	if b[a]+1 < b[c] {
		if b[c] >= Unreachable {
			lm.reached[i]++
		}
		b[c] = b[a] + 1
		lm.queue = append(lm.queue, int32(c))
	} else if b[c]+1 < b[a] {
		if b[a] >= Unreachable {
			lm.reached[i]++
		}
		b[a] = b[c] + 1
		lm.queue = append(lm.queue, int32(a))
	}
	for head := 0; head < len(lm.queue); head++ {
		z := int(lm.queue[head])
		dz := b[z]
		lm.nbrA = g.AppendNeighbors32(z, lm.nbrA[:0])
		for _, w32 := range lm.nbrA {
			w := int(w32)
			if dz+1 < b[w] {
				if b[w] >= Unreachable {
					lm.reached[i]++
				}
				b[w] = dz + 1
				lm.queue = append(lm.queue, int32(w))
			}
		}
	}
}
