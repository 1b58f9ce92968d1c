package graph

// allResultsOf computes the BFS aggregates of every vertex in one
// aggregate-only all-sources pass.
func allResultsOf(g Store) []BFSResult {
	res := make([]BFSResult, g.N())
	g.AllSourcesBFS(res, &BatchBFSScratch{})
	return res
}

// Eccentricities returns the eccentricity of every vertex. Vertices of a
// disconnected graph report Unreachable.
func (g *Graph) Eccentricities() []int32 {
	ecc := make([]int32, g.n)
	for u, r := range allResultsOf(g) {
		if r.Reached < g.n {
			ecc[u] = Unreachable
		} else {
			ecc[u] = r.Ecc
		}
	}
	return ecc
}

// DistanceSums returns, for every vertex, the sum of its distances to all
// other vertices; Unreachable on disconnected graphs.
func (g *Graph) DistanceSums() []int64 {
	sums := make([]int64, g.n)
	for u, r := range allResultsOf(g) {
		if r.Reached < g.n {
			sums[u] = int64(Unreachable)
		} else {
			sums[u] = r.Sum
		}
	}
	return sums
}

// Diameter returns the largest eccentricity, or Unreachable if g is
// disconnected. The diameter of a graph with fewer than two vertices is 0.
func (g *Graph) Diameter() int32 { return DiameterOf(g) }

// DiameterOf is Diameter over any backend.
func DiameterOf(g Store) int32 {
	n := g.N()
	if n <= 1 {
		return 0
	}
	var d int32
	for _, r := range allResultsOf(g) {
		if r.Reached < n {
			return Unreachable
		}
		if r.Ecc > d {
			d = r.Ecc
		}
	}
	return d
}

// Radius returns the smallest eccentricity, or Unreachable if g is
// disconnected.
func (g *Graph) Radius() int32 {
	if g.n <= 1 {
		return 0
	}
	r := Unreachable
	for _, br := range allResultsOf(g) {
		if br.Reached < g.n {
			return Unreachable
		}
		if br.Ecc < r {
			r = br.Ecc
		}
	}
	return r
}

// Center returns the vertices of minimum eccentricity (the "center-vertices"
// of Definition 2.5 under MAX cost). On disconnected graphs it returns nil.
func (g *Graph) Center() []int {
	ecc := g.Eccentricities()
	best := Unreachable
	for _, e := range ecc {
		if e < best {
			best = e
		}
	}
	if best == Unreachable {
		return nil
	}
	var c []int
	for u, e := range ecc {
		if e == best {
			c = append(c, u)
		}
	}
	return c
}

// TotalDistance returns the sum over ordered pairs (u,v) of d(u,v), i.e. the
// social distance cost of the SUM version; Unreachable-based sentinel if
// disconnected.
func (g *Graph) TotalDistance() int64 { return TotalDistanceOf(g) }

// TotalDistanceOf is TotalDistance over any backend.
func TotalDistanceOf(g Store) int64 {
	n := g.N()
	var t int64
	for _, r := range allResultsOf(g) {
		if r.Reached < n {
			return int64(Unreachable)
		}
		t += r.Sum
	}
	return t
}

// IsStar reports whether g is a star: one center adjacent to all other
// vertices and no other edges. Graphs with fewer than three vertices count
// as stars.
func (g *Graph) IsStar() bool { return IsStarOf(g) }

// IsStarOf is IsStar over any backend.
func IsStarOf(g Store) bool {
	n := g.N()
	if !g.Connected() || g.M() != n-1 {
		return false
	}
	if n <= 2 {
		return true
	}
	hub := 0
	for u := 0; u < n; u++ {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	return g.Degree(hub) == n-1
}

// IsDoubleStar reports whether g is a double star: two adjacent hubs with
// every remaining vertex a leaf attached to one of them. Stars do not count
// as double stars (Alon et al. distinguish the two shapes); a single edge on
// two vertices does not either.
func (g *Graph) IsDoubleStar() bool { return IsDoubleStarOf(g) }

// IsDoubleStarOf is IsDoubleStar over any backend.
func IsDoubleStarOf(g Store) bool {
	n := g.N()
	if !g.Connected() || g.M() != n-1 || n < 4 {
		return false
	}
	var hubs []int
	for u := 0; u < n; u++ {
		if g.Degree(u) > 1 {
			hubs = append(hubs, u)
		}
	}
	if len(hubs) != 2 {
		return false
	}
	return g.HasEdge(hubs[0], hubs[1])
}

// LongestPathFrom returns, for a tree, one vertex realizing the
// eccentricity of v (the far endpoint of a "longest path of agent v",
// Definition 2.7) together with the eccentricity.
func (g *Graph) LongestPathFrom(v int) (far int, ecc int32) {
	dist := make([]int32, g.n)
	g.BFS(v, dist, NewBFSScratch(g.n))
	far, ecc = v, 0
	for u, d := range dist {
		if d != Unreachable && d > ecc {
			far, ecc = u, d
		}
	}
	return far, ecc
}
