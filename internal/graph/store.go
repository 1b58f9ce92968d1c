package graph

// Store is the narrowed graph surface the runtime layers (game scans,
// dynamics engines, state fingerprints, landmark oracles) operate on: edge
// and ownership tests, deterministic adjacency iteration, mutation with
// EdgeObserver hooks, the BFS kernel family and the canonical state
// encodings. Two implementations exist:
//
//   - *Graph: the bitset adjacency matrix — O(n²/8) memory, word-parallel
//     row operations, the right backend for the paper's dense construction
//     searches and for any n where n² bits fit comfortably.
//   - *Sparse: CSR-style adjacency lists with slack-slot insertion and
//     amortized compaction — O(n + m) memory, the backend for million-agent
//     landmark-mode runs where the matrix itself is the wall.
//
// Both backends expose the same deterministic neighbour order (increasing
// vertex index), so BFS levels, tie-breaks, fingerprints and canonical
// encodings are bit-identical across them; the dense-only conveniences
// (Clone, Equal, Edges, Validate, bitset row access) stay on *Graph.
//
// The interface is sealed (the unexported buildCSR method): only backends
// inside this package can implement it, which is what lets the batch
// kernels trust the CSR snapshot contract.
type Store interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of edges.
	M() int
	// AdjVersion returns the adjacency mutation counter; it changes
	// whenever the edge set may have changed since a previous observation.
	AdjVersion() uint64

	// HasEdge reports whether the edge {u,v} exists.
	HasEdge(u, v int) bool
	// Owns reports whether edge {u,v} exists and is owned by u.
	Owns(u, v int) bool
	// Owner returns the owner of edge {u,v}; it panics if the edge is
	// absent.
	Owner(u, v int) int
	// Degree returns the number of edges incident to u.
	Degree(u int) int
	// OutDegree returns the number of edges owned by u.
	OutDegree(u int) int

	// AddEdge inserts the edge {owner, v} owned by owner. It panics if the
	// edge already exists, if owner == v, or if either endpoint is out of
	// range.
	AddEdge(owner, v int)
	// RemoveEdge deletes the edge {u,v} regardless of its owner. It panics
	// if the edge does not exist.
	RemoveEdge(u, v int)
	// SetOwner transfers ownership of the existing edge {u,v} to owner,
	// which must be one of its endpoints.
	SetOwner(owner, v int)
	// SetObserver installs o as the mutation observer (nil uninstalls).
	SetObserver(o EdgeObserver)

	// NeighborList appends the neighbours of u to dst in increasing order.
	NeighborList(u int, dst []int) []int
	// OwnedList appends the owned neighbours of u to dst in increasing
	// order.
	OwnedList(u int, dst []int) []int
	// AppendNeighbors32 appends the neighbours of u to dst in increasing
	// order as int32, the scratch-friendly form of hot repair loops.
	AppendNeighbors32(u int, dst []int32) []int32
	// ForEachOwned calls fn for every owned neighbour of u in increasing
	// order.
	ForEachOwned(u int, fn func(v int))

	// AppendOwnedRows appends the ownership-aware canonical encoding to
	// dst; see encode.go. Byte-equality of encodings is state equality
	// across backends.
	AppendOwnedRows(dst []uint64) []uint64
	// AppendAdjRows appends the ownership-blind canonical encoding to dst.
	AppendAdjRows(dst []uint64) []uint64

	// BFS computes shortest-path distances from src; see (*Graph).BFS.
	BFS(src int, dist []int32, s *BFSScratch) BFSResult
	// BFSExcluding is BFS on the vertex-deleted subgraph G - excl.
	BFSExcluding(src, excl int, dist []int32, s *BFSScratch) BFSResult
	// BFSEdited is BFS in the network u's strategy change (drop, add)
	// would produce, without mutating the store; see (*Graph).BFSEdited.
	BFSEdited(src, u int, drop, add []int, dist []int32, s *BFSScratch) BFSResult
	// BFSEditedTargets scores u's strategy changes that drop drop and add
	// one edge each, one result per target; see (*Graph).BFSEditedTargets.
	BFSEditedTargets(u int, drop, add []int, res []BFSResult, s *BFSScratch)
	// PartialBFS completes a partially known distance field; see
	// (*Graph).PartialBFS for the exact contract.
	PartialBFS(dist []int32, suspects Bitset, s *RepairScratch)
	// Connected reports whether the graph is connected.
	Connected() bool
	// ConnectedFrom reports whether all n vertices are reachable from src.
	ConnectedFrom(src int, s *BFSScratch) bool

	// BatchBFS computes distance rows from every source, 64 per pass; see
	// (*Graph).BatchBFS.
	BatchBFS(sources []int, rows [][]int32, res []BFSResult, s *BatchBFSScratch)
	// BatchBFSExcluding is BatchBFS on the vertex-deleted subgraph G-excl.
	BatchBFSExcluding(sources []int, excl int, rows [][]int32, res []BFSResult, s *BatchBFSScratch)
	// AllSourcesBFS computes every vertex's BFS aggregates; see
	// (*Graph).AllSourcesBFS.
	AllSourcesBFS(res []BFSResult, s *BatchBFSScratch)
	// AllSourcesBFSFlat is AllSourcesBFS into a row-major n*n matrix.
	AllSourcesBFSFlat(mat []int32, res []BFSResult, s *BatchBFSScratch)
	// AllSourcesBFSShard covers sources [lo, hi) of the flat matrix.
	AllSourcesBFSShard(lo, hi int, mat []int32, res []BFSResult, s *BatchBFSScratch)

	// buildCSR snapshots the adjacency into the scratch's flat neighbour
	// lists (cached on (identity, AdjVersion)); it seals the interface to
	// this package.
	buildCSR(s *BatchBFSScratch)
}

var (
	_ Store = (*Graph)(nil)
	_ Store = (*Sparse)(nil)
)

// ForEachOwned calls fn for every owned neighbour of u in increasing order.
func (g *Graph) ForEachOwned(u int, fn func(v int)) { g.out[u].ForEach(fn) }

// AppendNeighbors32 appends the neighbours of u to dst in increasing order
// as int32.
func (g *Graph) AppendNeighbors32(u int, dst []int32) []int32 {
	return g.adj[u].Elements32(dst)
}
