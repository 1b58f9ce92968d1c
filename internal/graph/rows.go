package graph

import "sync"

// Rows holds exact BFS distance rows from a list of source vertices, with
// each row's sum, eccentricity and reach, and keeps them exact across an
// agent's strategy change (Apply). It is the one distance-row store of the
// repository: the k rows of a landmark oracle (Landmarks) and the n rows of
// a process engine's all-pairs cost cache.
//
// Apply's repair is output-sensitive. A removed edge {u,x} can only move
// the entries of a row whose source reaches u and x at different depths;
// there a shortest-path-DAG descent from the farther endpoint finds exactly
// the entries whose every shortest path crossed the edge, and PartialBFS
// settles them from the survivors. An inserted edge propagates distance
// decreases breadth-first from the endpoint it shortens. Rows with more
// than n/2 damaged entries are cheaper to re-search, and moves that change
// more than one edge in either direction re-search every row one of their
// edges can change; both kinds are collected and re-searched in one batched
// pass. Sum and reach follow the changed entries; the eccentricity is
// rescanned only when the row's top level may have emptied.
//
// The zero Rows is empty and ready for SearchAll. A Rows is not safe for
// concurrent mutation; concurrent reads are fine.
type Rows struct {
	n   int
	src []int
	d   []int32     // len(src) x n row-major: d[i*n+v] = d(src[i], v)
	agg []BFSResult // per-row sum, eccentricity and reach
	// top[i] is a lower bound on the number of entries of row i at depth
	// agg[i].Ecc; a search leaves it 0 without counting them.
	top []int32

	// Repair arenas.
	suspect Bitset
	dmg     []int32
	queue   []int32
	// nbrA/nbrB are the neighbour-list buffers of the repair loops (two
	// levels of nesting: the descent over nbrA probes predecessors into
	// nbrB).
	nbrA    []int32
	nbrB    []int32
	stale   []int // rows whose top level lost an entry in this Apply
	refresh []int // rows queued for a full re-search, increasing
	ids     []int
	rowp    [][]int32
	res     []BFSResult
	bfs     *BFSScratch
	repair  *RepairScratch
	batch   *BatchBFSScratch
}

// grow sizes the rows and arenas for k rows over n vertices.
func (r *Rows) grow(n, k int) {
	if r.batch == nil {
		r.batch = NewBatchBFSScratch(n)
	}
	if r.repair == nil {
		r.repair = NewRepairScratch(n)
	}
	if cap(r.d) < k*n {
		r.d = make([]int32, k*n)
	}
	r.d = r.d[:k*n]
	if cap(r.agg) < k {
		r.agg = make([]BFSResult, k)
		r.top = make([]int32, k)
		r.res = make([]BFSResult, k)
	}
	r.agg, r.top, r.res = r.agg[:k], r.top[:k], r.res[:k]
	if r.n != n || r.suspect == nil {
		r.suspect = NewBitset(n)
		r.bfs = NewBFSScratch(n)
	}
	r.n = n
}

// SearchAll makes every vertex of g a source, row v holding d(v, ·), and
// computes the rows. par, when it holds more than one scratch, splits the
// 64-source groups into that many shards built concurrently; shards write
// disjoint column blocks and aggregate ranges, so the result is
// bit-identical to the serial build.
func (r *Rows) SearchAll(g Store, par []*BatchBFSScratch) {
	n := g.N()
	r.grow(n, n)
	if len(r.src) != n {
		r.src = r.src[:0]
		for v := 0; v < n; v++ {
			r.src = append(r.src, v)
		}
	}
	if len(par) > 1 {
		FillUnreachable(r.d)
		span := ((n+63)/64 + len(par) - 1) / len(par) * 64
		var wg sync.WaitGroup
		for w := 0; w*span < n; w++ {
			lo, hi := w*span, min((w+1)*span, n)
			wg.Add(1)
			go func(s *BatchBFSScratch) {
				defer wg.Done()
				g.AllSourcesBFSShard(lo, hi, r.d, r.agg, s)
			}(par[w])
		}
		wg.Wait()
	} else {
		g.AllSourcesBFSFlat(r.d, r.agg, r.batch)
	}
	clear(r.top)
}

// K returns the number of rows.
func (r *Rows) K() int { return len(r.src) }

// N returns the vertex count the rows cover.
func (r *Rows) N() int { return r.n }

// Row returns the exact distance row i; the caller must not modify it.
func (r *Rows) Row(i int) []int32 { return r.d[i*r.n : (i+1)*r.n] }

// Result returns the sum, eccentricity and reach of row i, as a BFS from
// its source would report them.
func (r *Rows) Result(i int) BFSResult { return r.agg[i] }

// Apply folds agent u's applied strategy change into the rows: the edges
// {u,x}, x ∈ drop, were removed and {u,y}, y ∈ add, inserted, and g is
// already the post-move network. Moves of at most one removal and one
// insertion repair incrementally; larger ones re-search every row one of
// their edges can change.
func (r *Rows) Apply(g Store, u int, drop, add []int) {
	r.refresh, r.stale = r.refresh[:0], r.stale[:0]
	switch {
	case len(drop) > 1 || len(add) > 1:
		r.queueTouched(u, drop, add)
	case len(drop) == 1 && len(add) == 1:
		// Repair in chronological order — removal first, insertion
		// second — by lifting the inserted edge out of the graph, so the
		// removal repair runs on exactly the intermediate network it
		// models. Mixing the phases is unsound: a removal repair over the
		// post-insertion network settles damaged entries through the new
		// edge while survivors keep stale pre-insertion values, and the
		// decrease propagation cannot tell the two apart. The transient
		// remove/add pair fires any installed graph observer
		// symmetrically, which state fingerprints cancel exactly.
		y := add[0]
		owner, other := u, y
		if g.Owner(u, y) != u {
			owner, other = y, u
		}
		g.RemoveEdge(u, y)
		r.remove(g, u, drop[0])
		g.AddEdge(owner, other)
		r.insert(g, u, y)
	case len(drop) == 1:
		r.remove(g, u, drop[0])
	case len(add) == 1:
		r.insert(g, u, add[0])
	}
	r.rescanStale()
	r.flush(g)
}

// queueTouched queues every row that one of the move's edges can change:
// a removed edge {u,x} lay on a shortest-path DAG of the source iff its
// endpoint depths differ, and an inserted edge {u,y} shortens a path iff
// its endpoint depths differ by at least two (an unreached endpoint counts
// as infinitely deep). A row none of the edges can change keeps its
// entries under all of them at once.
func (r *Rows) queueTouched(u int, drop, add []int) {
	for i := range r.src {
		b := r.Row(i)
		touched := false
		for _, x := range drop {
			touched = touched || b[u] != b[x]
		}
		for _, y := range add {
			touched = touched || b[u]-b[y] > 1 || b[y]-b[u] > 1
		}
		if touched {
			r.refresh = append(r.refresh, i)
		}
	}
}

// remove folds the removal of edge {u,x} into every row; g must already
// lack the edge and otherwise equal the network the rows describe.
//
// Per row (old distances b) the farther endpoint q heads the descent. An
// entry w is damaged iff all its DAG predecessors — neighbours one level
// nearer — are damaged; the removed edge never counts as a surviving
// predecessor, since it is absent from g. The descent visits the levels in
// order, so every predecessor's verdict is final when w is tested.
// Damaged entries are invalidated and settled by PartialBFS from the
// survivors; rows with more than n/2 of them are queued for re-search.
func (r *Rows) remove(g Store, u, x int) {
	for i := range r.src {
		b := r.Row(i)
		q := x
		switch {
		case b[u] == b[x]:
			continue // the edge was on no shortest-path DAG of the source
		case b[x] < b[u]:
			q = u
		}
		if r.survives(g, b, q) {
			continue // q keeps a shortest path; nothing downstream moved
		}
		r.suspect.Set(q)
		r.dmg = append(r.dmg[:0], int32(q))
		for head := 0; head < len(r.dmg); head++ {
			z := int(r.dmg[head])
			r.nbrA = g.AppendNeighbors32(z, r.nbrA[:0])
			for _, w := range r.nbrA {
				if b[w] == b[z]+1 && !r.suspect.Has(int(w)) && !r.survives(g, b, int(w)) {
					r.suspect.Set(int(w))
					r.dmg = append(r.dmg, w)
				}
			}
		}
		if len(r.dmg) > r.n/2 {
			r.refresh = append(r.refresh, i)
		} else {
			for _, w := range r.dmg {
				r.leave(i, b[w])
				b[w] = Unreachable
			}
			g.PartialBFS(b, r.suspect, r.repair)
			for _, w := range r.dmg {
				r.enter(i, b[w])
			}
		}
		for _, w := range r.dmg {
			r.suspect.Clear(int(w))
		}
	}
}

// survives reports that w keeps a DAG predecessor outside the damage.
func (r *Rows) survives(g Store, b []int32, w int) bool {
	r.nbrB = g.AppendNeighbors32(w, r.nbrB[:0])
	for _, z := range r.nbrB {
		if b[z] == b[w]-1 && !r.suspect.Has(int(z)) {
			return true
		}
	}
	return false
}

// insert folds the insertion of edge {a,c} into every row not queued for
// re-search, by decrease propagation over the post-move network: relax
// across the new edge, then breadth-first out of every improved vertex.
// Sound from any entrywise upper bound that is exact on every vertex with
// a shortest path avoiding the new edge — which the rows before the move
// and after remove both are — and exact on termination.
func (r *Rows) insert(g Store, a, c int) {
	queued := r.refresh // increasing, as remove queues them
	for i := range r.src {
		if len(queued) > 0 && queued[0] == i {
			queued = queued[1:]
			continue
		}
		b := r.Row(i)
		r.queue = r.queue[:0]
		switch {
		case b[a]+1 < b[c]:
			r.lower(i, b, c, b[a]+1)
		case b[c]+1 < b[a]:
			r.lower(i, b, a, b[c]+1)
		}
		for head := 0; head < len(r.queue); head++ {
			z := int(r.queue[head])
			r.nbrA = g.AppendNeighbors32(z, r.nbrA[:0])
			for _, w := range r.nbrA {
				if b[z]+1 < b[w] {
					r.lower(i, b, int(w), b[z]+1)
				}
			}
		}
	}
}

// lower sets entry w of row i (b) to the smaller depth dw and queues w for
// propagation.
func (r *Rows) lower(i int, b []int32, w int, dw int32) {
	if b[w] < Unreachable {
		r.leave(i, b[w])
	}
	b[w] = dw
	r.enter(i, dw)
	r.queue = append(r.queue, int32(w))
}

// leave takes the finite entry depth dv out of row i's aggregates.
func (r *Rows) leave(i int, dv int32) {
	a := &r.agg[i]
	a.Sum -= int64(dv)
	a.Reached--
	if dv == a.Ecc {
		if r.top[i] > 0 {
			r.top[i]--
		}
		if r.top[i] == 0 {
			r.stale = append(r.stale, i)
		}
	}
}

// enter adds entry depth dv to row i's aggregates; Unreachable is skipped.
func (r *Rows) enter(i int, dv int32) {
	if dv >= Unreachable {
		return
	}
	a := &r.agg[i]
	a.Sum += int64(dv)
	a.Reached++
	switch {
	case dv > a.Ecc:
		a.Ecc, r.top[i] = dv, 1
	case dv == a.Ecc:
		r.top[i]++
	}
}

// rescanStale recomputes the eccentricity and top-level count of every row
// whose top level lost its last counted entry and gained none since.
func (r *Rows) rescanStale() {
	for _, i := range r.stale {
		if r.top[i] > 0 {
			continue
		}
		var ecc, top int32
		for _, dv := range r.Row(i) {
			switch {
			case dv >= Unreachable:
			case dv > ecc:
				ecc, top = dv, 1
			case dv == ecc:
				top++
			}
		}
		r.agg[i].Ecc, r.top[i] = ecc, top
	}
}

// flush re-searches the queued rows on g: a single row by a plain BFS,
// which skips the kernel's CSR snapshot, more in one batched pass.
func (r *Rows) flush(g Store) {
	switch len(r.refresh) {
	case 0:
		return
	case 1:
		i := r.refresh[0]
		r.agg[i] = g.BFS(r.src[i], r.Row(i), r.bfs)
	default:
		r.ids, r.rowp = r.ids[:0], r.rowp[:0]
		for _, i := range r.refresh {
			r.ids = append(r.ids, r.src[i])
			r.rowp = append(r.rowp, r.Row(i))
		}
		res := r.res[:len(r.refresh)]
		g.BatchBFS(r.ids, r.rowp, res, r.batch)
		for j, i := range r.refresh {
			r.agg[i] = res[j]
		}
	}
	for _, i := range r.refresh {
		r.top[i] = 0
	}
}
