package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is an undirected network G = (V, E, o) on vertex set {0, ..., n-1}
// with an ownership function o that assigns every edge to exactly one of its
// endpoints. Games that ignore ownership (the Swap Game) simply never
// consult it.
//
// Internally the graph keeps a bitset adjacency matrix plus a bitset
// "out-neighbour" matrix recording ownership: out[u].Has(v) holds iff edge
// {u,v} exists and is owned by u. For every edge exactly one of
// out[u].Has(v), out[v].Has(u) is true; Validate checks this invariant.
type Graph struct {
	n   int
	m   int
	adj []Bitset // adj[u] = neighbours of u
	out []Bitset // out[u] = neighbours v with o({u,v}) = u
	deg []int
	// word holds the adjacency rows when n <= 64, where every row is one
	// word (adj[u] aliases word[u]); the BFS core's one-word path reads
	// it. It is nil on larger graphs.
	word []uint64
	obs  EdgeObserver
	// version counts adjacency mutations (edge insertions, removals and
	// bulk overwrites; ownership transfers don't change adjacency). Batch
	// kernels key their CSR snapshot on it, so back-to-back searches of an
	// unchanged network skip the snapshot rebuild.
	version uint64
}

// AdjVersion returns the adjacency mutation counter; it changes whenever
// the edge set may have changed since a previous observation.
func (g *Graph) AdjVersion() uint64 { return g.version }

// EdgeObserver receives a callback after every edge mutation of a graph it
// is installed on, the hook behind incrementally maintained state
// fingerprints (internal/state). Bulk operations (CopyFrom, LoadOwnedRows,
// LoadAdjRows) bypass the observer; re-initialize it after them.
type EdgeObserver interface {
	// EdgeAdded runs after edge {owner,v} owned by owner was inserted.
	EdgeAdded(owner, v int)
	// EdgeRemoved runs after the edge {owner,v} was deleted; owner is the
	// endpoint that owned it at removal time.
	EdgeRemoved(owner, v int)
	// OwnerChanged runs after ownership of edge {owner,v} moved to owner;
	// the previous owner was v. It does not run for no-op SetOwner calls.
	OwnerChanged(owner, v int)
}

// SetObserver installs o as the graph's mutation observer (nil uninstalls).
// Exactly one observer can be active; installing replaces the previous one.
func (g *Graph) SetObserver(o EdgeObserver) { g.obs = o }

// Edge is an undirected edge together with its owner; Owner must be one of
// the two endpoints (U by convention in builders).
type Edge struct {
	U, V int
}

// New returns an empty graph on n vertices, 0 <= n.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{
		n:   n,
		adj: make([]Bitset, n),
		out: make([]Bitset, n),
		deg: make([]int, n),
	}
	words := (n + 63) / 64
	// Adjacency rows first and ownership rows after them, so that one-word
	// adjacency rows lie contiguous.
	backing := make([]uint64, 2*n*words)
	for u := 0; u < n; u++ {
		g.adj[u] = Bitset(backing[u*words : (u+1)*words : (u+1)*words])
		g.out[u] = Bitset(backing[(n+u)*words : (n+u+1)*words : (n+u+1)*words])
	}
	if words == 1 {
		g.word = backing[:n:n]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether the edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u].Has(v) }

// Owns reports whether edge {u,v} exists and is owned by u.
func (g *Graph) Owns(u, v int) bool { return g.out[u].Has(v) }

// Owner returns the owner of edge {u,v}; it panics if the edge is absent.
func (g *Graph) Owner(u, v int) int {
	switch {
	case g.out[u].Has(v):
		return u
	case g.out[v].Has(u):
		return v
	}
	panic(fmt.Sprintf("graph: no edge {%d,%d}", u, v))
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int { return g.deg[u] }

// OutDegree returns the number of edges owned by u.
func (g *Graph) OutDegree(u int) int { return g.out[u].Count() }

// AddEdge inserts the edge {owner, v} owned by owner. It panics if the edge
// already exists, if owner == v, or if either endpoint is out of range.
func (g *Graph) AddEdge(owner, v int) {
	if owner == v {
		panic(fmt.Sprintf("graph: self-loop at %d", owner))
	}
	if g.adj[owner].Has(v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", owner, v))
	}
	g.adj[owner].Set(v)
	g.adj[v].Set(owner)
	g.out[owner].Set(v)
	g.deg[owner]++
	g.deg[v]++
	g.m++
	g.version++
	if g.obs != nil {
		g.obs.EdgeAdded(owner, v)
	}
}

// RemoveEdge deletes the edge {u,v} regardless of its owner. It panics if
// the edge does not exist.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.adj[u].Has(v) {
		panic(fmt.Sprintf("graph: removing missing edge {%d,%d}", u, v))
	}
	owner, other := u, v
	if g.obs != nil && !g.out[u].Has(v) {
		owner, other = v, u
	}
	g.adj[u].Clear(v)
	g.adj[v].Clear(u)
	g.out[u].Clear(v)
	g.out[v].Clear(u)
	g.deg[u]--
	g.deg[v]--
	g.m--
	g.version++
	if g.obs != nil {
		g.obs.EdgeRemoved(owner, other)
	}
}

// SetOwner transfers ownership of the existing edge {u,v} to owner, which
// must be one of its endpoints.
func (g *Graph) SetOwner(owner, v int) {
	if !g.adj[owner].Has(v) {
		panic(fmt.Sprintf("graph: no edge {%d,%d}", owner, v))
	}
	changed := !g.out[owner].Has(v)
	g.out[owner].Set(v)
	g.out[v].Clear(owner)
	if changed && g.obs != nil {
		g.obs.OwnerChanged(owner, v)
	}
}

// Neighbors returns the neighbour bitset of u. The caller must not modify
// it.
func (g *Graph) Neighbors(u int) Bitset { return g.adj[u] }

// OwnedNeighbors returns the bitset of v with o({u,v}) = u. The caller must
// not modify it.
func (g *Graph) OwnedNeighbors(u int) Bitset { return g.out[u] }

// NeighborList appends the neighbours of u to dst in increasing order.
func (g *Graph) NeighborList(u int, dst []int) []int { return g.adj[u].Elements(dst) }

// OwnedList appends the owned neighbours of u to dst in increasing order.
func (g *Graph) OwnedList(u int, dst []int) []int { return g.out[u].Elements(dst) }

// Edges returns all edges with their owner as the U field, sorted by
// (owner, other endpoint).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		g.out[u].ForEach(func(v int) {
			es = append(es, Edge{u, v})
		})
	}
	return es
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		c.adj[u].CopyFrom(g.adj[u])
		c.out[u].CopyFrom(g.out[u])
		c.deg[u] = g.deg[u]
	}
	c.m = g.m
	return c
}

// CopyFrom overwrites g with src; both must have the same vertex count.
func (g *Graph) CopyFrom(src *Graph) {
	if g.n != src.n {
		panic("graph: CopyFrom size mismatch")
	}
	for u := 0; u < g.n; u++ {
		g.adj[u].CopyFrom(src.adj[u])
		g.out[u].CopyFrom(src.out[u])
		g.deg[u] = src.deg[u]
	}
	g.m = src.m
	g.version++
}

// Equal reports whether g and o are identical labeled networks: same vertex
// count, same edges and same ownership.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.m != o.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if !g.out[u].Equal(o.out[u]) {
			return false
		}
	}
	return true
}

// EqualUnowned reports whether g and o have the same edge sets, ignoring
// ownership.
func (g *Graph) EqualUnowned(o *Graph) bool {
	if g.n != o.n || g.m != o.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if !g.adj[u].Equal(o.adj[u]) {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a hash of the labeled network including
// ownership. Equal graphs hash equal; the converse holds only modulo
// collisions, so callers that must be exact should confirm with Equal.
func (g *Graph) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(g.n)) * prime
	for u := 0; u < g.n; u++ {
		for _, w := range g.out[u] {
			h = (h ^ w) * prime
			h = (h ^ (w >> 32)) * prime
		}
	}
	return h
}

// HashUnowned is Hash over the edge set only, ignoring ownership.
func (g *Graph) HashUnowned() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(g.n)) * prime
	for u := 0; u < g.n; u++ {
		for _, w := range g.adj[u] {
			h = (h ^ w) * prime
			h = (h ^ (w >> 32)) * prime
		}
	}
	return h
}

// Validate checks the representation invariants: adjacency symmetry, no
// self-loops, every edge owned by exactly one endpoint, degree counters and
// edge counter consistent. It returns the first violation found.
func (g *Graph) Validate() error {
	edges := 0
	for u := 0; u < g.n; u++ {
		if g.adj[u].Has(u) {
			return fmt.Errorf("graph: self-loop at %d", u)
		}
		d := 0
		for v := 0; v < g.n; v++ {
			if g.adj[u].Has(v) {
				d++
				if !g.adj[v].Has(u) {
					return fmt.Errorf("graph: asymmetric edge {%d,%d}", u, v)
				}
				ou, ov := g.out[u].Has(v), g.out[v].Has(u)
				if ou == ov {
					return fmt.Errorf("graph: edge {%d,%d} has %d owners", u, v, b2i(ou)+b2i(ov))
				}
				if u < v {
					edges++
				}
			} else if g.out[u].Has(v) {
				return fmt.Errorf("graph: ownership without edge {%d,%d}", u, v)
			}
		}
		if d != g.deg[u] {
			return fmt.Errorf("graph: degree of %d is %d, counter says %d", u, d, g.deg[u])
		}
	}
	if edges != g.m {
		return fmt.Errorf("graph: %d edges, counter says %d", edges, g.m)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String renders the graph as "n=<n> edges=[owner->v ...]" with edges sorted
// by owner; useful in test failure messages.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d m=%d [", g.n, g.m)
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	for i, e := range es {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d->%d", e.U, e.V)
	}
	sb.WriteByte(']')
	return sb.String()
}
