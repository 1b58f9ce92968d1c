// Package state gives network states a cheap identity: an incremental
// Zobrist-style fingerprint maintained in O(1) per edge mutation, and an
// arena-backed intern table that stores each distinct state once as a
// compact canonical byte encoding with byte-exact verification on hash
// collision. Together they replace the "full-graph rehash plus
// graph.Clone per visited state" pattern of cycle detection and
// state-graph exploration.
package state

import (
	"ncg/internal/graph"
	"ncg/internal/rng"
)

// Tables holds the per-(owner,endpoint) Zobrist randomness of n-vertex
// networks: one 64-bit value per directed pair for the ownership-aware
// fingerprint, and one per undirected pair (stored symmetrically) for the
// ownership-blind one. XOR-folding the values of a graph's edges yields
// its fingerprint, so single-edge mutations update it in O(1).
type Tables struct {
	n     int
	aware []uint64 // aware[owner*n+v]: edge {owner,v} owned by owner
	blind []uint64 // blind[u*n+v] == blind[v*n+u]: edge {u,v}
}

// DefaultSeed feeds NewTables; one fixed stream keeps fingerprints stable
// across processes.
const DefaultSeed = 0x6e63672d7a6f62 // "ncg-zob"

// NewTables returns the Zobrist tables of n-vertex networks, filled from
// the default deterministic stream.
func NewTables(n int) *Tables { return NewTablesSeeded(n, DefaultSeed) }

// NewTablesSeeded is NewTables with an explicit splitmix64 seed, so tests
// can construct adversarial (colliding) tables.
func NewTablesSeeded(n int, seed uint64) *Tables {
	t := &Tables{
		n:     n,
		aware: make([]uint64, n*n),
		blind: make([]uint64, n*n),
	}
	s := rng.NewStream(seed)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				t.aware[u*n+v] = s.Next()
			}
			if u < v {
				r := s.Next()
				t.blind[u*n+v] = r
				t.blind[v*n+u] = r
			}
		}
	}
	return t
}

// N returns the vertex count the tables were built for.
func (t *Tables) N() int { return t.n }

// zero overwrites every table entry with 0, leaving all states
// fingerprint-equal; the forced-collision tests use it to prove the intern
// table distinguishes states by bytes, not hashes.
func (t *Tables) zero() {
	for i := range t.aware {
		t.aware[i] = 0
	}
	for i := range t.blind {
		t.blind[i] = 0
	}
}

// Fingerprint tracks both state-hash variants of one graph incrementally.
// Install it with Attach (or Init + graph.SetObserver) and every AddEdge,
// RemoveEdge and SetOwner — committed moves, and the apply/undo pairs of
// state-graph searches, which cancel — updates both hashes in O(1).
// Candidate scoring never mutates the graph, so it never reaches the
// fingerprint. It implements graph.EdgeObserver.
type Fingerprint struct {
	t     *Tables
	aware uint64
	blind uint64
}

// Attach computes g's fingerprint from scratch and installs f as the
// graph's mutation observer.
func (f *Fingerprint) Attach(t *Tables, g graph.Store) {
	f.Init(t, g)
	g.SetObserver(f)
}

// Init computes g's fingerprint from scratch without installing f.
func (f *Fingerprint) Init(t *Tables, g graph.Store) {
	f.t = t
	f.aware = 0
	f.blind = 0
	n := g.N()
	// One closure for the whole scan: a per-vertex literal would escape
	// through the interface call and allocate n times per Init.
	u := 0
	fold := func(v int) {
		f.aware ^= t.aware[u*n+v]
		f.blind ^= t.blind[u*n+v]
	}
	for u = 0; u < n; u++ {
		g.ForEachOwned(u, fold)
	}
}

// Aware returns the ownership-aware fingerprint: equal for graphs equal
// under graph.Equal (modulo hash collisions — intern verifies bytes).
func (f *Fingerprint) Aware() uint64 { return f.aware }

// Blind returns the ownership-blind fingerprint, the HashUnowned analogue.
func (f *Fingerprint) Blind() uint64 { return f.blind }

// Hash returns the variant matching the game's state identity: aware when
// ownership matters, blind otherwise.
func (f *Fingerprint) Hash(owned bool) uint64 {
	if owned {
		return f.aware
	}
	return f.blind
}

// ForceHash overwrites one variant, for callers that bulk-load a graph
// (bypassing the observer) and know its stored fingerprint. The other
// variant becomes meaningless until the next Init.
func (f *Fingerprint) ForceHash(owned bool, h uint64) {
	if owned {
		f.aware = h
	} else {
		f.blind = h
	}
}

// EdgeAdded implements graph.EdgeObserver.
func (f *Fingerprint) EdgeAdded(owner, v int) {
	n := f.t.n
	f.aware ^= f.t.aware[owner*n+v]
	f.blind ^= f.t.blind[owner*n+v]
}

// EdgeRemoved implements graph.EdgeObserver; XOR makes removal the same
// toggle as insertion.
func (f *Fingerprint) EdgeRemoved(owner, v int) {
	n := f.t.n
	f.aware ^= f.t.aware[owner*n+v]
	f.blind ^= f.t.blind[owner*n+v]
}

// OwnerChanged implements graph.EdgeObserver: ownership of {owner,v} moved
// from v to owner, which flips only the aware variant.
func (f *Fingerprint) OwnerChanged(owner, v int) {
	n := f.t.n
	f.aware ^= f.t.aware[v*n+owner] ^ f.t.aware[owner*n+v]
}
