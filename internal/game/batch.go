package game

// Round-based (simultaneous-move) play commits a set of moves computed
// against one immutable snapshot. Two moves of a round collide when they
// touch a common edge slot; the round loop (internal/dynamics/rounds.go)
// finds collisions with the conflict keys of this file and commits the
// moves it keeps one ApplyMove at a time.

// PairKey is the canonical conflict key of an undirected vertex pair: two
// moves collide exactly when they touch a common pair. The key ignores
// ownership and direction — an agent adding {u,v} collides with v dropping
// {v,u} — because both operate on the same undirected edge slot.
type PairKey uint64

// MakePairKey returns the canonical key of the pair {u, v}.
func MakePairKey(u, v int) PairKey {
	if u > v {
		u, v = v, u
	}
	return PairKey(uint64(u)<<32 | uint64(v))
}

// ForEachPair calls fn with the conflict key of every edge slot the move
// touches: {Agent, x} for each dropped x and {Agent, y} for each added y.
func (m Move) ForEachPair(fn func(PairKey)) {
	for _, x := range m.Drop {
		fn(MakePairKey(m.Agent, x))
	}
	for _, y := range m.Add {
		fn(MakePairKey(m.Agent, y))
	}
}
