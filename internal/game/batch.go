package game

import (
	"ncg/internal/graph"
)

// Round-based (simultaneous-move) play commits a set of moves computed
// against one immutable snapshot. This file provides the batch layer those
// dynamics build on: touched-pair conflict keys, the disjointness test that
// makes a move set jointly applicable, and batch apply/undo. When an
// incremental fingerprint is attached to the graph (state.Fingerprint as
// graph observer), its deltas ride every batch mutation automatically.

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

// DisjointMoves reports whether the moves touch pairwise-disjoint edge
// slots. For moves that are individually valid on a common snapshot (drops
// are snapshot edges, adds are snapshot non-edges — what BestMoves
// enumerates), disjointness makes the set jointly applicable: committing
// the moves in any order never drops a missing edge or adds a present one,
// and the final network is order-independent. seen, if non-nil, is used as
// the scratch pair set (cleared first) so steady-state callers allocate
// nothing.
func DisjointMoves(moves []Move, seen map[PairKey]struct{}) bool {
	if seen == nil {
		seen = make(map[PairKey]struct{}, 2*len(moves))
	}
	clear(seen)
	ok := true
	for _, m := range moves {
		m.ForEachPair(func(k PairKey) {
			if _, dup := seen[k]; dup {
				ok = false
			}
			seen[k] = struct{}{}
		})
		if !ok {
			return false
		}
	}
	return true
}

// AppliedSet records the reversible effect of a batch-applied move set.
type AppliedSet struct {
	applied []Applied
}

// ApplySet performs every move on g, in slice order, and returns the undo
// record. The moves must be jointly applicable (see DisjointMoves);
// ApplySet panics — like Apply — when a move drops a missing edge or adds
// a present one. A fingerprint observing g absorbs the whole batch as
// ordinary edge mutations.
func ApplySet(g graph.Store, moves []Move) AppliedSet {
	as := AppliedSet{applied: make([]Applied, 0, len(moves))}
	for _, m := range moves {
		as.applied = append(as.applied, Apply(g, m))
	}
	return as
}

// Undo reverts the batch in reverse application order, restoring original
// edge ownership. Reverse order makes Undo correct even for overlapping
// (non-disjoint but still applicable) sets, where a later move dropped an
// edge an earlier move added.
func (as AppliedSet) Undo() {
	for i := len(as.applied) - 1; i >= 0; i-- {
		as.applied[i].Undo()
	}
}
