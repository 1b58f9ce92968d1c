// Package game implements the network creation games of Kawald & Lenzner
// (SPAA'13): the Swap Game (Alon et al.), the Asymmetric Swap Game
// (Mihalák & Schlegel), the Greedy Buy Game (Lenzner), the original Buy
// Game (Fabrikant et al.) and the bilateral equal-split Buy Game
// (Corbo & Parkes), each in the SUM and MAX distance-cost version, with
// optional host-graph restrictions.
//
// All cost arithmetic is exact: the edge price alpha is a rational number
// and costs are compared by integer cross-multiplication, so constructions
// that hold for parameter ranges such as 7 < alpha < 8 are verified without
// floating-point ties.
package game

import (
	"fmt"
	"math/bits"

	"ncg/internal/graph"
)

// Alpha is the exact rational edge price alpha = Num/Den > 0.
type Alpha struct {
	Num, Den int64
}

// NewAlpha returns the edge price num/den. It panics unless num/den > 0.
func NewAlpha(num, den int64) Alpha {
	if den <= 0 || num <= 0 {
		panic(fmt.Sprintf("game: alpha must be positive, got %d/%d", num, den))
	}
	return Alpha{Num: num, Den: den}
}

// AlphaInt returns the integral edge price a.
func AlphaInt(a int64) Alpha { return NewAlpha(a, 1) }

// Float returns alpha as a float64 (for reporting only; never used in
// comparisons).
func (a Alpha) Float() float64 { return float64(a.Num) / float64(a.Den) }

func (a Alpha) String() string {
	if a.Den == 1 {
		return fmt.Sprintf("%d", a.Num)
	}
	return fmt.Sprintf("%d/%d", a.Num, a.Den)
}

// DistKind selects the distance-cost aggregation of Section 1.1.
type DistKind int

const (
	// Sum is the SUM version: delta(u) = sum of distances to all agents.
	Sum DistKind = iota
	// Max is the MAX version: delta(u) = eccentricity of u.
	Max
)

func (k DistKind) String() string {
	if k == Sum {
		return "SUM"
	}
	return "MAX"
}

// DistInf is the distance-cost of an agent in a disconnected network.
const DistInf = int64(1) << 50

// Cost is the exact cost of an agent: Halves * (alpha/2) + Dist. Unilateral
// games charge two halves per owned edge (the owner pays alpha in full);
// the bilateral game charges one half per incident edge; swap games charge
// nothing. Dist == DistInf encodes disconnection, which dominates any edge
// cost.
type Cost struct {
	Halves int64
	Dist   int64
}

// Infinite reports whether the cost encodes a disconnected network.
func (c Cost) Infinite() bool { return c.Dist >= DistInf }

// Cmp compares two costs under edge price a and returns -1, 0 or +1.
// Infinite costs compare equal to each other and greater than any finite
// cost, matching the convention that a disconnected agent cannot improve by
// staying disconnected.
func (c Cost) Cmp(o Cost, a Alpha) int {
	ci, oi := c.Infinite(), o.Infinite()
	switch {
	case ci && oi:
		return 0
	case ci:
		return 1
	case oi:
		return -1
	}
	// c < o  <=>  (c.Halves-o.Halves) * Num < (o.Dist-c.Dist) * 2 * Den.
	// Both differences are exact in int64 for every cost the code produces
	// (halves >= 0, finite distances below DistInf), but their products
	// need not be (SUM costs at n = 10^6 against a fine-grained alpha), so
	// they are compared as signed 128-bit values: bits.Mul64 reads a
	// negative difference x as x + 2^64, which adds 2^64 times the other
	// factor, and subtracting that factor from the high word takes it out.
	dh, dd := c.Halves-o.Halves, (o.Dist-c.Dist)*2
	lh, ll := bits.Mul64(uint64(dh), uint64(a.Num))
	rh, rl := bits.Mul64(uint64(dd), uint64(a.Den))
	if dh < 0 {
		lh -= uint64(a.Num)
	}
	if dd < 0 {
		rh -= uint64(a.Den)
	}
	switch {
	case int64(lh) < int64(rh) || lh == rh && ll < rl:
		return -1
	case lh == rh && ll == rl:
		return 0
	}
	return 1
}

// Less reports c < o under edge price a.
func (c Cost) Less(o Cost, a Alpha) bool { return c.Cmp(o, a) < 0 }

// Float converts the cost to a float64 under edge price a, for reporting.
func (c Cost) Float(a Alpha) float64 {
	if c.Infinite() {
		return float64(DistInf)
	}
	return float64(c.Halves)*a.Float()/2 + float64(c.Dist)
}

func (c Cost) String() string {
	if c.Infinite() {
		return "inf"
	}
	switch c.Halves {
	case 0:
		return fmt.Sprintf("%d", c.Dist)
	default:
		return fmt.Sprintf("%d+%d*a/2", c.Dist, c.Halves)
	}
}

// distCost aggregates a BFS result according to the distance kind.
func distCost(r graph.BFSResult, n int, kind DistKind) int64 {
	if r.Reached < n {
		return DistInf
	}
	if kind == Sum {
		return r.Sum
	}
	return int64(r.Ecc)
}
