package game

import (
	"math"

	"ncg/internal/graph"
)

// The best-response fold.
//
// The process of Section 1.1 asks three questions about one agent's
// strategy space: is the agent unhappy (HasImproving), which moves attain
// the agent's best improving cost (BestMoves), and — for the
// weak-acyclicity results — which moves improve at all (ImprovingMoves).
// Every production scan answers all three with one enumerator per strategy
// space and scoring path: a scan that opens a fold with the mover's
// current cost and offers it every candidate (cost, move) pair in a fixed
// order. The fold owns everything the three queries do differently: which
// offered moves are kept, the pool copy of a kept move, the early exit of
// a probe, and the threshold below which a candidate's lower bound must
// stay for the candidate to be worth scoring. The swap games and the GBG
// have two scoring paths: the delta-scored scan, and the naive scan of
// naive.go, which scores each candidate by a search of the edited network
// and runs on small dense networks (see PreferNaiveScan). Both offer the
// same candidates in the same order.

// query is the question a fold answers.
type query int

const (
	// probeQuery asks whether any offered move strictly improves; the
	// fold stops the enumeration at the first one.
	probeQuery query = iota
	// improvingQuery keeps every strictly improving move in offer order.
	improvingQuery
	// bestQuery keeps every move attaining the least offered cost,
	// provided that cost strictly improves, in offer order.
	bestQuery
)

// scanFunc is a strategy space's one candidate enumeration: it calls
// f.begin with u's current cost, then offers f every candidate move and
// stops as soon as an offer returns false.
type scanFunc func(g graph.Store, u int, f *fold)

// fold consumes the (cost, move) pairs of one enumeration under one query.
type fold struct {
	q     query
	s     *Scratch
	alpha Alpha
	u     int
	// cur is the mover's current cost and best the least kept cost so far
	// (cur until an improving move is kept).
	cur, best Cost
	// dst[start:] holds the kept moves, their Drop/Add slices in s.pool.
	dst   []Move
	start int
	// found records that a probe met an improving move.
	found bool
}

// probe reports whether scan offers u a strictly improving move.
func (s *Scratch) probe(scan scanFunc, g graph.Store, u int, a Alpha) bool {
	f := s.openFold(probeQuery, a, u, nil)
	scan(g, u, f)
	return f.found
}

// improving appends every strictly improving move scan offers u to dst.
func (s *Scratch) improving(scan scanFunc, g graph.Store, u int, a Alpha, dst []Move) []Move {
	f := s.openFold(improvingQuery, a, u, dst)
	scan(g, u, f)
	return f.dst
}

// bestMoves appends every move scan offers u at the least offered cost to
// dst and returns that cost, provided it strictly improves on u's current
// cost; otherwise it returns dst unchanged with the current cost.
func (s *Scratch) bestMoves(scan scanFunc, g graph.Store, u int, a Alpha, dst []Move) ([]Move, Cost) {
	f := s.openFold(bestQuery, a, u, dst)
	scan(g, u, f)
	return f.dst, f.best
}

// openFold resets the scratch's fold for a query of agent u. The fold
// lives in the Scratch so that handing it to a scan through a function
// value allocates nothing. Move-keeping queries reset the move pool, so
// the moves they return are valid only until the next enumeration on s.
func (s *Scratch) openFold(q query, a Alpha, u int, dst []Move) *fold {
	if q != probeQuery {
		s.pool = s.pool[:0]
	}
	s.fold = fold{q: q, s: s, alpha: a, u: u, dst: dst, start: len(dst)}
	return &s.fold
}

// begin records u's current cost; the enumerator calls it once, before
// its first offer or threshold read.
func (f *fold) begin(cur Cost) { f.cur, f.best = cur, cur }

// keeps is the keep rule. Probes and improving queries keep every cost
// strictly below the current one. A best query replaces its kept set by a
// strictly better cost and appends a tie only while the tied cost
// improves; its first kept move is therefore strictly better than the
// current cost, and the running best only descends.
func (f *fold) keeps(c Cost) bool {
	if f.q != bestQuery {
		return c.Less(f.cur, f.alpha)
	}
	switch c.Cmp(f.best, f.alpha) {
	case -1:
		// The replaced moves' pool entries are all this fold's own.
		f.dst, f.s.pool = f.dst[:f.start], f.s.pool[:0]
		f.best = c
		return true
	case 0:
		return f.best.Less(f.cur, f.alpha)
	}
	return false
}

// offer folds in u's candidate move (drop, add) at cost c, copying the
// lists into the scratch pool if the move is kept, so callers may pass
// scratch or stack slices. It reports whether the enumeration goes on: a
// probe stops at its first improving move.
func (f *fold) offer(c Cost, drop, add []int) bool {
	if !f.keeps(c) {
		return true
	}
	if f.q == probeQuery {
		f.found = true
		return false
	}
	f.dst = append(f.dst, Move{Agent: f.u, Drop: f.s.pooled(drop), Add: f.s.pooled(add)})
	return true
}

// distLimit is the distance from which a candidate at the edge-cost halves
// h cannot be kept, so that a scan may skip it with one comparison and
// offer only the rest. A probe or an improving query keeps a cost strictly
// below the current one, and a best query one at most the running best.
// When h is at least that reference's halves, alpha > 0 lets only a
// smaller distance (or, against the best, an equal one) get there; when h
// is smaller there is no limit. The keep rule still judges every offered
// candidate, so the kept moves, their order and a probe's early exit do
// not change; a best query's limit falls as its best does, so it is read
// again after each offer. The naive scans also hand the limit to the
// search that scores a drop's targets (offerTargets), which stops a
// target's search as soon as its distance cost is known to reach the
// limit; since the limit never rises within a drop, the one taken before
// the search stays sound.
func (f *fold) distLimit(h int64) int64 {
	ref, limit := f.cur, f.cur.Dist
	if f.q == bestQuery {
		ref, limit = f.best, f.best.Dist+1
	}
	if h < ref.Halves {
		return math.MaxInt64
	}
	return limit
}

// prunes reports whether a candidate whose cost is bounded below by lb
// can be skipped unscored: it could neither strictly improve on the
// current cost nor, in a best query, tie the running best.
func (f *fold) prunes(lb Cost) bool {
	if f.q == bestQuery {
		return lb.Cmp(f.best, f.alpha) > 0
	}
	return !lb.Less(f.cur, f.alpha)
}

// prunesDist is prunes for the swap games, whose costs are distances
// alone: a candidate whose distance lower bound reaches limit is skipped.
func (f *fold) prunesDist(lb int64) bool { return lb >= f.limit() }

// limit is the distance from which prunesDist prunes. Scans hand it to
// bound computations that may stop early once a bound reaches it.
func (f *fold) limit() int64 {
	if f.q == bestQuery {
		return f.best.Dist + 1
	}
	return f.cur.Dist
}

// pooled copies xs into the scratch move pool and returns the copy, capped
// so that appending to it never clobbers the pool; nil for an empty list.
func (s *Scratch) pooled(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	s.pool = append(s.pool, xs...)
	return s.pool[len(s.pool)-len(xs) : len(s.pool) : len(s.pool)]
}
