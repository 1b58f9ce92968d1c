package state

import (
	"slices"
	"sync"
	"sync/atomic"

	"ncg/internal/graph"
	"ncg/internal/rng"
)

// Ref identifies an interned state: the shard that holds it and the entry
// index within the shard. With a single-shard store, Ref values are the
// dense sequence 0, 1, 2, ... in intern order, so callers can use them
// directly as indices into side arrays.
type Ref int64

// Store interns canonical state encodings. Each distinct state is stored
// exactly once, as graph.EncodedWords(n) words appended to a contiguous
// per-shard arena — no graph clones, no per-state allocations beyond
// amortized arena growth. Lookup is by fingerprint with byte-exact
// verification, so hash collisions can never conflate two states.
//
// A multi-shard store serves concurrent Intern calls: the fingerprint
// picks the shard and each shard locks independently. All other methods
// must not race with Intern; the level-synchronous explorer reads only
// between expansion barriers.
type Store struct {
	n          int
	stateWords int
	owned      bool
	shardBits  uint
	shards     []shard
	count      atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	slots []int32 // open addressing into entries; -1 = empty
	fps   []uint64
	arena []uint64
	_     [24]byte // keep shards off each other's cache lines
}

// NewStore returns an empty store for n-vertex states. owned selects the
// encoding (and with it the equality the store implements): ownership-aware
// out-rows or ownership-blind adj-rows. shards is rounded up to a power of
// two; use 1 for serial callers.
func NewStore(n int, owned bool, shards int) *Store {
	s := &Store{}
	nsh := 1
	bits := uint(0)
	for nsh < shards {
		nsh <<= 1
		bits++
	}
	s.shards = make([]shard, nsh)
	s.shardBits = bits
	s.Reset(n, owned)
	return s
}

// Reset empties the store and reconfigures it for n-vertex states with the
// given equality, keeping every arena and table allocation for reuse.
func (s *Store) Reset(n int, owned bool) {
	s.n = n
	s.stateWords = graph.EncodedWords(n)
	s.owned = owned
	s.count.Store(0)
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.slots) == 0 {
			sh.slots = make([]int32, 256)
		}
		for j := range sh.slots {
			sh.slots[j] = -1
		}
		sh.fps = sh.fps[:0]
		sh.arena = sh.arena[:0]
	}
}

// N returns the configured vertex count.
func (s *Store) N() int { return s.n }

// Owned reports whether the store uses the ownership-aware encoding.
func (s *Store) Owned() bool { return s.owned }

// Count returns the number of distinct interned states. It is safe to call
// concurrently with Intern.
func (s *Store) Count() int { return int(s.count.Load()) }

// Bytes returns the total arena footprint in bytes, for memory reporting.
func (s *Store) Bytes() int64 {
	var b int64
	for i := range s.shards {
		b += int64(cap(s.shards[i].arena)) * 8
	}
	return b
}

// Encode appends g's canonical encoding under the store's equality to buf.
func (s *Store) Encode(g graph.Store, buf []uint64) []uint64 {
	if s.owned {
		return g.AppendOwnedRows(buf)
	}
	return g.AppendAdjRows(buf)
}

// mix64 is the splitmix64 finalizer, spreading fingerprints over slots.
func mix64(h uint64) uint64 { return rng.Mix64(h) }

// Intern looks up the state encoded in enc (with fingerprint h) and inserts
// it if absent, copying the encoding into the shard arena. It returns the
// state's Ref and whether it was fresh. Equal fingerprints with different
// bytes are distinct states: matching is byte-exact.
func (s *Store) Intern(h uint64, enc []uint64) (Ref, bool) {
	hm := mix64(h)
	si := hm & uint64(len(s.shards)-1)
	sh := &s.shards[si]
	sh.mu.Lock()
	entry, fresh := sh.intern(h, s.shardBits, enc, s.stateWords)
	sh.mu.Unlock()
	if fresh {
		s.count.Add(1)
	}
	return Ref(int64(entry)<<s.shardBits | int64(si)), fresh
}

// home is the canonical probe start of a fingerprint: the mixed bits above
// the shard selector. intern and grow MUST agree on it, or entries become
// unreachable after a slot-table growth.
func home(fp uint64, shardBits uint) uint64 { return mix64(fp) >> shardBits }

func (sh *shard) intern(h uint64, shardBits uint, enc []uint64, words int) (int32, bool) {
	mask := uint64(len(sh.slots) - 1)
	i := home(h, shardBits) & mask
	for {
		e := sh.slots[i]
		if e < 0 {
			break
		}
		if sh.fps[e] == h && slices.Equal(sh.arena[int(e)*words:(int(e)+1)*words], enc) {
			return e, false
		}
		i = (i + 1) & mask
	}
	e := int32(len(sh.fps))
	sh.fps = append(sh.fps, h)
	sh.arena = append(sh.arena, enc...)
	sh.slots[i] = e
	if 4*len(sh.fps) >= 3*len(sh.slots) {
		sh.grow(shardBits)
	}
	return e, true
}

// grow doubles the slot table and reinserts every entry at its home slot.
func (sh *shard) grow(shardBits uint) {
	slots := make([]int32, 2*len(sh.slots))
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(len(slots) - 1)
	for e, fp := range sh.fps {
		i := home(fp, shardBits) & mask
		for slots[i] >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(e)
	}
	sh.slots = slots
}

// Snapshot appends ref's encoding to buf and returns it with the
// fingerprint ref was interned under. Unlike Hash/Encoding/Decode it locks
// the shard, so it is safe to call while other goroutines Intern (arena
// growth cannot invalidate the copy).
func (s *Store) Snapshot(ref Ref, buf []uint64) (uint64, []uint64) {
	sh, e := s.locate(ref)
	sh.mu.Lock()
	h := sh.fps[e]
	buf = append(buf, sh.arena[e*s.stateWords:(e+1)*s.stateWords]...)
	sh.mu.Unlock()
	return h, buf
}

// LoadEncoding overwrites g with the state encoded in rows under the
// store's equality (the buffer form of Decode, for Snapshot callers).
// Decoding targets the dense backend: the bulk row loads are bitset
// operations, and every decode consumer (cycle verification, hit replay)
// lives at dense-friendly sizes.
func (s *Store) LoadEncoding(g *graph.Graph, rows []uint64) {
	if s.owned {
		g.LoadOwnedRows(rows)
	} else {
		g.LoadAdjRows(rows)
	}
}

// Hash returns the fingerprint ref was interned under.
func (s *Store) Hash(ref Ref) uint64 {
	sh, e := s.locate(ref)
	return sh.fps[e]
}

// Encoding returns the interned canonical encoding of ref. The slice
// aliases the shard arena and may be invalidated by a later Intern on the
// same shard; do not retain it across inserts.
func (s *Store) Encoding(ref Ref) []uint64 {
	sh, e := s.locate(ref)
	return sh.arena[e*s.stateWords : (e+1)*s.stateWords]
}

// Decode overwrites g with the state interned at ref. For ownership-blind
// stores the decoded graph carries the canonical "smaller endpoint owns"
// orientation, which ownership-blind games never consult.
func (s *Store) Decode(ref Ref, g *graph.Graph) {
	if s.owned {
		g.LoadOwnedRows(s.Encoding(ref))
	} else {
		g.LoadAdjRows(s.Encoding(ref))
	}
}

func (s *Store) locate(ref Ref) (*shard, int) {
	return &s.shards[ref&(1<<s.shardBits-1)], int(ref >> s.shardBits)
}
