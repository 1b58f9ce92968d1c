package graph

import (
	"fmt"
	"sort"
)

// Sparse is the CSR-style adjacency-list implementation of Store: every
// vertex owns a sorted slice of packed neighbour entries inside one shared
// uint32 arena, O(n + m) memory in total — tens of megabytes at n = 10^6,
// m = O(n), against the ~125 GB a bitset matrix would need. It exists for
// the tree-and-near-tree regime the paper's dynamics live in at scale.
//
// Entry packing: the low 31 bits are the neighbour index, the top bit
// (spOwned) records "this row's vertex owns the edge". Rows are kept sorted
// by neighbour index, so every iteration order (neighbour lists, owned
// lists, BFS expansions, canonical encodings) matches the bitset backend's
// increasing-index order bit for bit.
//
// Mutation strategy — slack-slot insertion with amortized compaction:
// inserting into a full row relocates it to the end of the arena with
// doubled capacity (the old slot becomes garbage); once garbage exceeds the
// live entries the arena is compacted in one O(n + m) pass that restores
// per-row slack. Every operation is O(deg) plus amortized O(1) arena work,
// and the arena never exceeds a constant multiple of the live entry count.
type Sparse struct {
	n int
	m int
	// arena backs all rows; row u is arena[off[u] : off[u]+deg[u]], with
	// capacity rcap[u] (slack slots beyond deg are undefined).
	arena []uint32
	off   []int32
	deg   []int32
	rcap  []int32
	odeg  []int32 // per-vertex owned-edge counters
	// garbage counts abandoned row capacities; compaction triggers when it
	// exceeds the live entry count.
	garbage int
	obs     EdgeObserver
	version uint64
}

const (
	spOwned  = uint32(1) << 31
	spVertex = spOwned - 1
	// spInitCap is the capacity of a freshly relocated empty row.
	spInitCap = 4
)

// NewSparse returns an empty sparse graph on n vertices, 0 <= n. Rows start
// with zero capacity; the first insertion into a vertex relocates it.
func NewSparse(n int) *Sparse {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if int64(n) > int64(spVertex) {
		panic("graph: sparse backend supports at most 2^31-1 vertices")
	}
	return &Sparse{
		n:    n,
		off:  make([]int32, n),
		deg:  make([]int32, n),
		rcap: make([]int32, n),
		odeg: make([]int32, n),
	}
}

// NewSparseFrom returns the sparse copy of g: same edges, same ownership,
// same deterministic neighbour order.
func NewSparseFrom(g *Graph) *Sparse {
	sp := NewSparse(g.N())
	n := g.N()
	// Bulk load in one pass with a quarter of per-row slack, so the runs
	// that follow start with insertion headroom instead of relocating on
	// their first edge.
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(u) + g.Degree(u)/4
	}
	sp.arena = make([]uint32, 0, total)
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		c := d + d/4
		o := len(sp.arena)
		g.adj[u].ForEach(func(v int) {
			e := uint32(v)
			if g.out[u].Has(v) {
				e |= spOwned
			}
			sp.arena = append(sp.arena, e)
		})
		sp.arena = sp.arena[:o+c]
		sp.off[u] = int32(o)
		sp.deg[u] = int32(d)
		sp.rcap[u] = int32(c)
		sp.odeg[u] = int32(g.OutDegree(u))
	}
	sp.m = g.M()
	return sp
}

// Dense returns the bitset copy of sp: same edges, same ownership.
func (sp *Sparse) Dense() *Graph {
	g := New(sp.n)
	for u := 0; u < sp.n; u++ {
		for _, e := range sp.row(u) {
			if e&spOwned != 0 {
				g.AddEdge(u, int(e&spVertex))
			}
		}
	}
	return g
}

// row returns the live entries of vertex u.
func (sp *Sparse) row(u int) []uint32 {
	o := sp.off[u]
	return sp.arena[o : o+sp.deg[u]]
}

// find returns the index of v in row u and whether it is present; absent
// entries report the insertion position. Rows are sorted by vertex index,
// so this is a binary search over the masked entries.
func (sp *Sparse) find(u, v int) (int, bool) {
	row := sp.row(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid]&spVertex) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(row) && int(row[lo]&spVertex) == v
}

// N returns the number of vertices.
func (sp *Sparse) N() int { return sp.n }

// M returns the number of edges.
func (sp *Sparse) M() int { return sp.m }

// AdjVersion returns the adjacency mutation counter.
func (sp *Sparse) AdjVersion() uint64 { return sp.version }

// SetObserver installs o as the graph's mutation observer (nil uninstalls).
func (sp *Sparse) SetObserver(o EdgeObserver) { sp.obs = o }

// HasEdge reports whether the edge {u,v} exists.
func (sp *Sparse) HasEdge(u, v int) bool {
	_, ok := sp.find(u, v)
	return ok
}

// Owns reports whether edge {u,v} exists and is owned by u.
func (sp *Sparse) Owns(u, v int) bool {
	i, ok := sp.find(u, v)
	return ok && sp.row(u)[i]&spOwned != 0
}

// Owner returns the owner of edge {u,v}; it panics if the edge is absent.
func (sp *Sparse) Owner(u, v int) int {
	i, ok := sp.find(u, v)
	if !ok {
		panic(fmt.Sprintf("graph: no edge {%d,%d}", u, v))
	}
	if sp.row(u)[i]&spOwned != 0 {
		return u
	}
	return v
}

// Degree returns the number of edges incident to u.
func (sp *Sparse) Degree(u int) int { return int(sp.deg[u]) }

// OutDegree returns the number of edges owned by u.
func (sp *Sparse) OutDegree(u int) int { return int(sp.odeg[u]) }

// insert places the packed entry e into row u at sorted position pos,
// relocating or compacting as needed.
func (sp *Sparse) insert(u, pos int, e uint32) {
	if sp.deg[u] == sp.rcap[u] {
		sp.relocate(u)
	}
	o := int(sp.off[u])
	row := sp.arena[o : o+int(sp.deg[u])+1]
	copy(row[pos+1:], row[pos:])
	row[pos] = e
	sp.deg[u]++
}

// relocate moves row u to the end of the arena with doubled capacity and
// compacts the arena when the abandoned slots outweigh the live entries.
func (sp *Sparse) relocate(u int) {
	oldCap := int(sp.rcap[u])
	newCap := oldCap * 2
	if newCap < spInitCap {
		newCap = spInitCap
	}
	sp.garbage += oldCap
	live := 2 * sp.m
	if sp.garbage > live+spInitCap*sp.n {
		sp.compact(u, newCap)
		return
	}
	o := len(sp.arena)
	sp.arena = append(sp.arena, make([]uint32, newCap)...)
	copy(sp.arena[o:], sp.row(u))
	sp.off[u] = int32(o)
	sp.rcap[u] = int32(newCap)
}

// compact rebuilds the arena in vertex order, giving every row a quarter of
// slack; row u (mid-relocation) receives capacity uCap instead.
func (sp *Sparse) compact(u, uCap int) {
	need := 0
	for v := 0; v < sp.n; v++ {
		c := int(sp.deg[v]) + int(sp.deg[v])/4
		if v == u {
			c = uCap
		}
		need += c
	}
	fresh := make([]uint32, 0, need)
	for v := 0; v < sp.n; v++ {
		c := int(sp.deg[v]) + int(sp.deg[v])/4
		if v == u {
			c = uCap
		}
		o := len(fresh)
		fresh = append(fresh, sp.row(v)...)
		fresh = fresh[:o+c]
		sp.off[v] = int32(o)
		sp.rcap[v] = int32(c)
	}
	sp.arena = fresh
	sp.garbage = 0
}

// AddEdge inserts the edge {owner, v} owned by owner. It panics if the edge
// already exists, if owner == v, or if either endpoint is out of range.
func (sp *Sparse) AddEdge(owner, v int) {
	if owner == v {
		panic(fmt.Sprintf("graph: self-loop at %d", owner))
	}
	pu, dup := sp.find(owner, v)
	if dup {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", owner, v))
	}
	pv, _ := sp.find(v, owner)
	sp.insert(owner, pu, uint32(v)|spOwned)
	sp.insert(v, pv, uint32(owner))
	sp.odeg[owner]++
	sp.m++
	sp.version++
	if sp.obs != nil {
		sp.obs.EdgeAdded(owner, v)
	}
}

// RemoveEdge deletes the edge {u,v} regardless of its owner. It panics if
// the edge does not exist.
func (sp *Sparse) RemoveEdge(u, v int) {
	pu, ok := sp.find(u, v)
	if !ok {
		panic(fmt.Sprintf("graph: removing missing edge {%d,%d}", u, v))
	}
	pv, _ := sp.find(v, u)
	owner, other := u, v
	if sp.row(u)[pu]&spOwned == 0 {
		owner, other = v, u
		sp.odeg[v]--
	} else {
		sp.odeg[u]--
	}
	ru := sp.row(u)
	copy(ru[pu:], ru[pu+1:])
	sp.deg[u]--
	rv := sp.row(v)
	copy(rv[pv:], rv[pv+1:])
	sp.deg[v]--
	sp.m--
	sp.version++
	if sp.obs != nil {
		sp.obs.EdgeRemoved(owner, other)
	}
}

// SetOwner transfers ownership of the existing edge {u,v} to owner, which
// must be one of its endpoints.
func (sp *Sparse) SetOwner(owner, v int) {
	po, ok := sp.find(owner, v)
	if !ok {
		panic(fmt.Sprintf("graph: no edge {%d,%d}", owner, v))
	}
	ro := sp.row(owner)
	if ro[po]&spOwned != 0 {
		return
	}
	pv, _ := sp.find(v, owner)
	ro[po] |= spOwned
	rv := sp.row(v)
	rv[pv] &^= spOwned
	sp.odeg[owner]++
	sp.odeg[v]--
	if sp.obs != nil {
		sp.obs.OwnerChanged(owner, v)
	}
}

// NeighborList appends the neighbours of u to dst in increasing order.
func (sp *Sparse) NeighborList(u int, dst []int) []int {
	for _, e := range sp.row(u) {
		dst = append(dst, int(e&spVertex))
	}
	return dst
}

// OwnedList appends the owned neighbours of u to dst in increasing order.
func (sp *Sparse) OwnedList(u int, dst []int) []int {
	for _, e := range sp.row(u) {
		if e&spOwned != 0 {
			dst = append(dst, int(e&spVertex))
		}
	}
	return dst
}

// AppendNeighbors32 appends the neighbours of u to dst in increasing order
// as int32.
func (sp *Sparse) AppendNeighbors32(u int, dst []int32) []int32 {
	for _, e := range sp.row(u) {
		dst = append(dst, int32(e&spVertex))
	}
	return dst
}

// ForEachOwned calls fn for every owned neighbour of u in increasing order.
func (sp *Sparse) ForEachOwned(u int, fn func(v int)) {
	for _, e := range sp.row(u) {
		if e&spOwned != 0 {
			fn(int(e & spVertex))
		}
	}
}

// AppendOwnedRows appends the ownership-aware canonical encoding — the same
// bitset row words the dense backend emits, synthesized from the sorted
// lists — so encodings are byte-identical across backends.
func (sp *Sparse) AppendOwnedRows(dst []uint64) []uint64 {
	words := (sp.n + 63) / 64
	base := len(dst)
	dst = append(dst, make([]uint64, sp.n*words)...)
	for u := 0; u < sp.n; u++ {
		row := dst[base+u*words : base+(u+1)*words]
		for _, e := range sp.row(u) {
			if e&spOwned != 0 {
				v := e & spVertex
				row[v>>6] |= 1 << (v & 63)
			}
		}
	}
	return dst
}

// AppendAdjRows appends the ownership-blind canonical encoding; see
// AppendOwnedRows.
func (sp *Sparse) AppendAdjRows(dst []uint64) []uint64 {
	words := (sp.n + 63) / 64
	base := len(dst)
	dst = append(dst, make([]uint64, sp.n*words)...)
	for u := 0; u < sp.n; u++ {
		row := dst[base+u*words : base+(u+1)*words]
		for _, e := range sp.row(u) {
			v := e & spVertex
			row[v>>6] |= 1 << (v & 63)
		}
	}
	return dst
}

// BFS computes shortest-path distances from src; contract identical to
// (*Graph).BFS. The sparse walk is a queue-based level scan over the
// adjacency lists — per-vertex distances, aggregates and eccentricities are
// bit-identical to the dense word-parallel search (BFS levels are unique).
func (sp *Sparse) BFS(src int, dist []int32, s *BFSScratch) BFSResult {
	return sp.bfsFrom(src, -1, nil, -1, nil, dist, s)
}

// BFSExcluding is BFS on the vertex-deleted subgraph G - excl; contract
// identical to (*Graph).BFSExcluding.
func (sp *Sparse) BFSExcluding(src, excl int, dist []int32, s *BFSScratch) BFSResult {
	if src == excl {
		panic("graph: BFSExcluding source equals excluded vertex")
	}
	return sp.bfsFrom(src, excl, nil, -1, nil, dist, s)
}

// BFSEdited is BFS in the network that results when u drops its edges to
// drop and adds edges to add, without mutating sp; contract identical to
// (*Graph).BFSEdited.
func (sp *Sparse) BFSEdited(src, u int, drop, add []int, dist []int32, s *BFSScratch) BFSResult {
	if len(s.mark) == 0 {
		s.mark = make(Bitset, len(s.visited))
	}
	mark := s.mark
	mark.Set(u)
	for _, x := range drop {
		mark.Set(x)
	}
	for _, y := range add {
		mark.Set(y)
	}
	res := sp.bfsFrom(src, -1, mark, u, add, dist, s)
	mark.Clear(u)
	for _, x := range drop {
		mark.Clear(x)
	}
	for _, y := range add {
		mark.Clear(y)
	}
	return res
}

// BFSEditedTargets sets res[i] to BFSEdited(u, u, drop, add[i:i+1], nil,
// s) for every i; contract identical to (*Graph).BFSEditedTargets.
func (sp *Sparse) BFSEditedTargets(u int, drop, add []int, res []BFSResult, s *BFSScratch) {
	for i := range add {
		res[i] = sp.BFSEdited(u, u, drop, add[i:i+1], nil, s)
	}
}

// bfsFrom is the queue-based level scan behind BFS, BFSExcluding and
// BFSEdited. A non-nil mark holds the mover u and the other endpoints of
// its edited edges, which expandEdited expands by their edited lists.
func (sp *Sparse) bfsFrom(src, excl int, mark Bitset, u int, add []int, dist []int32, s *BFSScratch) BFSResult {
	n := sp.n
	s.visited.Reset()
	if cap(s.queue) < n {
		s.queue = make([]int32, n)
	}
	q := s.queue[:0]
	if dist != nil {
		fill32(dist, Unreachable)
		dist[src] = 0
	}
	if excl >= 0 {
		s.visited.Set(excl)
	}
	s.visited.Set(src)
	q = append(q, int32(src))
	res := BFSResult{Reached: 1}
	depth := int32(0)
	for head, levelEnd := 0, 1; head < len(q); {
		depth++
		for ; head < levelEnd; head++ {
			v := int(q[head])
			if mark != nil && mark.Has(v) {
				q = sp.expandEdited(v, u, add, mark, depth, q, dist, s)
				continue
			}
			for _, e := range sp.row(v) {
				w := int(e & spVertex)
				if !s.visited.Has(w) {
					s.visited.Set(w)
					if dist != nil {
						dist[w] = depth
					}
					q = append(q, int32(w))
				}
			}
		}
		cnt := len(q) - levelEnd
		if cnt > 0 {
			res.Reached += cnt
			res.Sum += int64(depth) * int64(cnt)
			res.Ecc = depth
		}
		levelEnd = len(q)
	}
	s.queue = q[:0]
	return res
}

// expandEdited enqueues the unvisited neighbours of a marked vertex v in
// the edited network at the given depth. The mover u skips its marked
// neighbours — among them only the dropped ones — and gains add. Any other
// marked vertex toggles its edge to u: a dropped endpoint finds u in its
// list and skips it, an added one does not and gains u.
func (sp *Sparse) expandEdited(v, u int, add []int, mark Bitset, depth int32, q []int32, dist []int32, s *BFSScratch) []int32 {
	visit := func(w int) {
		if !s.visited.Has(w) {
			s.visited.Set(w)
			if dist != nil {
				dist[w] = depth
			}
			q = append(q, int32(w))
		}
	}
	if v == u {
		for _, e := range sp.row(v) {
			if w := int(e & spVertex); !mark.Has(w) {
				visit(w)
			}
		}
		for _, y := range add {
			visit(y)
		}
		return q
	}
	sawU := false
	for _, e := range sp.row(v) {
		w := int(e & spVertex)
		if w == u {
			sawU = true
			continue
		}
		visit(w)
	}
	if !sawU {
		visit(u)
	}
	return q
}

// Connected reports whether the graph is connected.
func (sp *Sparse) Connected() bool {
	if sp.n <= 1 {
		return true
	}
	return sp.BFS(0, nil, NewBFSScratch(sp.n)).Reached == sp.n
}

// ConnectedFrom reports whether all n vertices are reachable from src.
func (sp *Sparse) ConnectedFrom(src int, s *BFSScratch) bool {
	return sp.BFS(src, nil, s).Reached == sp.n
}

// PartialBFS completes a partially known distance field; contract identical
// to (*Graph).PartialBFS. Expansion walks the sorted adjacency lists
// against the suspects set instead of masking bitset words.
func (sp *Sparse) PartialBFS(dist []int32, suspects Bitset, s *RepairScratch) {
	n := sp.n
	remaining := suspects.Count()
	if remaining == 0 {
		return
	}
	if remaining == 1 {
		v := suspects.First()
		best := Unreachable
		for _, e := range sp.row(v) {
			if dw := dist[e&spVertex]; dw < best-1 {
				best = dw + 1
			}
		}
		dist[v] = best
		return
	}
	s.grow(n)
	arr, seeds := partialSeed(n, dist, suspects, s)
	start := 0
	cur := s.cur[:0]
	next := s.next2[:0]
	for lvl := int32(0); remaining > 0; lvl++ {
		end := start
		for end < seeds && dist[arr[end]] == lvl {
			end++
		}
		if start == end && len(cur) == 0 {
			if start >= seeds {
				break
			}
			lvl = dist[arr[start]] - 1
			continue
		}
		expand := func(v int32) {
			for _, e := range sp.row(int(v)) {
				w := int(e & spVertex)
				if suspects.Has(w) {
					suspects.Clear(w)
					dist[w] = lvl + 1
					remaining--
					next = append(next, int32(w))
				}
			}
		}
		for _, v := range arr[start:end] {
			expand(v)
		}
		for _, v := range cur {
			expand(v)
		}
		start = end
		cur, next = next, cur[:0]
	}
	s.cur, s.next2 = cur[:0], next[:0]
}

// buildCSR snapshots the adjacency into the scratch's flat neighbour lists;
// for the sparse backend this is a straight compaction of its own rows.
func (sp *Sparse) buildCSR(s *BatchBFSScratch) {
	if s.csrFor == Store(sp) && s.csrVer == sp.version {
		return
	}
	n := sp.n
	if cap(s.csrOff) < n+1 {
		s.csrOff = make([]int32, n+1)
	}
	off := s.csrOff[: n+1 : n+1]
	if cap(s.csr) < 2*sp.m {
		s.csr = make([]int32, 2*sp.m)
	}
	list := s.csr[:0]
	for v := 0; v < n; v++ {
		off[v] = int32(len(list))
		for _, e := range sp.row(v) {
			list = append(list, int32(e&spVertex))
		}
	}
	off[n] = int32(len(list))
	s.csr = list
	s.csrOff = off
	s.csrFor = sp
	s.csrVer = sp.version
}

// BatchBFS computes distance rows from every source, 64 per pass; contract
// identical to (*Graph).BatchBFS.
func (sp *Sparse) BatchBFS(sources []int, rows [][]int32, res []BFSResult, s *BatchBFSScratch) {
	batchBFSOver(sp, sources, -1, rows, res, s)
}

// BatchBFSExcluding is BatchBFS on the vertex-deleted subgraph G - excl.
func (sp *Sparse) BatchBFSExcluding(sources []int, excl int, rows [][]int32, res []BFSResult, s *BatchBFSScratch) {
	for _, src := range sources {
		if src == excl {
			panic("graph: BatchBFSExcluding source equals excluded vertex")
		}
	}
	batchBFSOver(sp, sources, excl, rows, res, s)
}

// AllSourcesBFS computes every vertex's BFS aggregates; contract identical
// to (*Graph).AllSourcesBFS.
func (sp *Sparse) AllSourcesBFS(res []BFSResult, s *BatchBFSScratch) {
	allSourcesOver(sp, res, s)
}

// AllSourcesBFSFlat is AllSourcesBFS into a row-major n*n matrix.
func (sp *Sparse) AllSourcesBFSFlat(mat []int32, res []BFSResult, s *BatchBFSScratch) {
	allSourcesFlatOver(sp, mat, res, s)
}

// AllSourcesBFSShard covers sources [lo, hi) of the flat matrix.
func (sp *Sparse) AllSourcesBFSShard(lo, hi int, mat []int32, res []BFSResult, s *BatchBFSScratch) {
	allSourcesShardOver(sp, lo, hi, mat, res, s)
}

// Validate checks the representation invariants: row sortedness, adjacency
// symmetry, no self-loops, exactly one owner per edge, degree and edge
// counters consistent. It returns the first violation found.
func (sp *Sparse) Validate() error {
	entries := 0
	owned := 0
	for u := 0; u < sp.n; u++ {
		if sp.deg[u] > sp.rcap[u] {
			return fmt.Errorf("graph: sparse row %d degree %d exceeds capacity %d", u, sp.deg[u], sp.rcap[u])
		}
		row := sp.row(u)
		od := 0
		for i, e := range row {
			v := int(e & spVertex)
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v >= sp.n {
				return fmt.Errorf("graph: sparse row %d entry %d out of range", u, v)
			}
			if i > 0 && int(row[i-1]&spVertex) >= v {
				return fmt.Errorf("graph: sparse row %d not strictly sorted at %d", u, i)
			}
			j, ok := sp.find(v, u)
			if !ok {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", u, v)
			}
			ou, ov := e&spOwned != 0, sp.row(v)[j]&spOwned != 0
			if ou == ov {
				return fmt.Errorf("graph: edge {%d,%d} has %d owners", u, v, b2i(ou)+b2i(ov))
			}
			if ou {
				od++
			}
			entries++
		}
		if od != int(sp.odeg[u]) {
			return fmt.Errorf("graph: out-degree of %d is %d, counter says %d", u, od, sp.odeg[u])
		}
		owned += od
	}
	if entries != 2*sp.m {
		return fmt.Errorf("graph: %d row entries, edge counter says %d", entries, sp.m)
	}
	if owned != sp.m {
		return fmt.Errorf("graph: %d owned entries, edge counter says %d", owned, sp.m)
	}
	return nil
}

// String renders the graph like (*Graph).String, for test failures.
func (sp *Sparse) String() string {
	es := make([]Edge, 0, sp.m)
	for u := 0; u < sp.n; u++ {
		sp.ForEachOwned(u, func(v int) {
			es = append(es, Edge{u, v})
		})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	out := fmt.Sprintf("n=%d m=%d [", sp.n, sp.m)
	for i, e := range es {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d->%d", e.U, e.V)
	}
	return out + "]"
}
