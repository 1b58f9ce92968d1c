package dynamics

import (
	"fmt"
	"sync"

	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/state"
)

// Round-based execution. Each round freezes the network, activates an
// agent set, computes every activated agent's best response against the
// frozen snapshot — fanned over the worker pool, since every game's scans
// only read the graph — and commits the responses in activation order
// under the collision policy. All randomness (policy picks, the
// shuffle, tie-break draws) is consumed serially in deterministic order
// between the parallel phases, so a seeded round run is bit-identical at
// any worker count.

// packedMove is one candidate move packed into a scanArena: offsets into
// the arena's ints backing instead of slices, so arena growth while packing
// never invalidates earlier candidates.
type packedMove struct {
	dropOff, dropLen int32
	addOff, addLen   int32
}

// scanArena is one worker's scan output for a round: the packed candidate
// moves of its contiguous block of activated agents, in block order, plus a
// per-agent candidate count. The arena (and its enumeration buffer) is
// reused across rounds and runs.
type scanArena struct {
	packed []packedMove
	ints   []int
	counts []int32
	moves  []game.Move
}

func (a *scanArena) reset() {
	a.packed = a.packed[:0]
	a.ints = a.ints[:0]
	a.counts = a.counts[:0]
}

// pack appends the agent's enumerated candidates and its count. The move
// slices are copied out of the scratch pool immediately: pooled backing is
// only valid until the same scratch's next enumeration.
func (a *scanArena) pack(mvs []game.Move) {
	for _, m := range mvs {
		pm := packedMove{dropOff: int32(len(a.ints)), dropLen: int32(len(m.Drop))}
		a.ints = append(a.ints, m.Drop...)
		pm.addOff = int32(len(a.ints))
		pm.addLen = int32(len(m.Add))
		a.ints = append(a.ints, m.Add...)
		a.packed = append(a.packed, pm)
	}
	a.counts = append(a.counts, int32(len(mvs)))
}

// agentScan locates one activated agent's candidates: the worker arena that
// scanned it, the start of its packed block and the candidate count.
type agentScan struct {
	worker int32
	start  int32
	count  int32
}

// roundState is the Runner's reusable round-mode arena set.
type roundState struct {
	active    []int
	scan      []*scanArena
	tab       []agentScan
	chosen    []int32
	pairSeen  map[game.PairKey]struct{}
	pairCount map[game.PairKey]int
}

// moveAt materializes activated agent i's chosen candidate. The returned
// slices alias the scan arenas, which are stable until the next round's
// scans.
func (rs *roundState) moveAt(i int) game.Move {
	t := rs.tab[i]
	a := rs.scan[t.worker]
	pm := a.packed[t.start+rs.chosen[i]]
	return game.Move{
		Agent: rs.active[i],
		Drop:  a.ints[pm.dropOff : pm.dropOff+pm.dropLen],
		Add:   a.ints[pm.addOff : pm.addOff+pm.addLen],
	}
}

// runRounds executes the process under a Rounds schedule. Config defaults
// and the naive-scan wrap were already applied by Run.
func (r *Runner) runRounds(g graph.Store, cfg Config, rd Rounds) Result {
	rng := r.seed(cfg.Seed)
	e := &r.eng
	e.reset(r, g, cfg.Game, cfg.Workers, cfg.Oracle)
	s := e.scratch()
	ep, hasEngine := cfg.Policy.(enginePolicy)

	detect := cfg.DetectCycles
	var owned bool
	if detect {
		owned = cfg.Game.OwnershipMatters()
		n := g.N()
		if r.tables == nil || r.tabN != n {
			r.tables = state.NewTables(n)
			r.tabN = n
		}
		if r.store == nil {
			r.store = state.NewStore(n, owned, 1)
		} else {
			r.store.Reset(n, owned)
		}
		r.fp.Attach(r.tables, g)
		defer g.SetObserver(nil)
		r.steps = r.steps[:0]
	}
	seenStep := func() (int, bool) {
		r.enc = r.store.Encode(g, r.enc[:0])
		ref, fresh := r.store.Intern(r.fp.Hash(owned), r.enc)
		if !fresh {
			return r.steps[ref], true
		}
		return 0, false
	}

	rs := &r.round
	if rs.pairSeen == nil {
		rs.pairSeen = make(map[game.PairKey]struct{})
		rs.pairCount = make(map[game.PairKey]int)
	}

	var res Result
	res.Kinds = r.kinds[:0]
	if detect {
		seenStep()
		r.steps = append(r.steps, 0)
	}

	// MaxSteps bounds committed moves; it also bounds rounds, so that a
	// deterministic reject-round stall (every round colliding, nothing
	// committing) terminates.
	for res.Steps < cfg.MaxSteps && res.Rounds < cfg.MaxSteps && !cancelled(cfg.Cancel) {
		// Activation. All draws here are serial on the run's RNG.
		rs.active = rs.active[:0]
		if rd.Active == ActivePolicy {
			var mover int
			if hasEngine {
				mover = ep.pickEngine(e, rng)
			} else {
				mover = cfg.Policy.Pick(g, cfg.Game, s, rng)
			}
			if mover < 0 {
				res.Converged = true
				break
			}
			rs.active = append(rs.active, mover)
		} else {
			rs.active = e.unhappy(rs.active)
			if len(rs.active) == 0 {
				res.Converged = true
				break
			}
			if rd.Active == ActiveShuffled {
				for i := len(rs.active) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					rs.active[i], rs.active[j] = rs.active[j], rs.active[i]
				}
			}
		}
		res.Rounds++

		// Scans against the frozen snapshot: contiguous agent blocks per
		// worker, candidates packed into per-worker arenas. Nothing below
		// depends on scan timing — block assignment and pack order are
		// functions of the activation list alone.
		nAgents := len(rs.active)
		nw := 1
		if e.workers > 1 && nAgents > 1 {
			nw = min(e.workers, nAgents)
		}
		for len(rs.scan) < nw {
			rs.scan = append(rs.scan, &scanArena{})
		}
		if nw == 1 {
			a := rs.scan[0]
			a.reset()
			for _, u := range rs.active {
				a.moves, _ = cfg.Game.BestMoves(g, u, s, a.moves[:0])
				a.pack(a.moves)
			}
		} else {
			span := (nAgents + nw - 1) / nw
			var wg sync.WaitGroup
			for w := 0; w < nw; w++ {
				lo := w * span
				hi := min(lo+span, nAgents)
				if lo >= hi {
					rs.scan[w].reset()
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					a := rs.scan[w]
					a.reset()
					scr := e.scr[w]
					for _, u := range rs.active[lo:hi] {
						a.moves, _ = cfg.Game.BestMoves(g, u, scr, a.moves[:0])
						a.pack(a.moves)
					}
				}(w, lo, hi)
			}
			wg.Wait()
		}

		// Locate every agent's candidate block.
		rs.tab = rs.tab[:0]
		for w := 0; w < nw; w++ {
			start := int32(0)
			for _, c := range rs.scan[w].counts {
				rs.tab = append(rs.tab, agentScan{worker: int32(w), start: start, count: c})
				start += c
			}
		}

		// Tie-breaking, serial in activation order. Draw counts depend only
		// on the candidate counts, never on collisions, so the RNG stream
		// is identical across collision policies.
		rs.chosen = rs.chosen[:0]
		for i, u := range rs.active {
			cnt := rs.tab[i].count
			if cnt == 0 {
				// Activated agents come from unhappy probes or a policy
				// pick, both of which guarantee an improving move.
				panic(fmt.Sprintf("dynamics: policy %q activated happy agent %d", cfg.Policy.Name(), u))
			}
			var pick int32
			switch cfg.Tie {
			case TieFirst:
				pick = 0
			case TieLast:
				pick = cnt - 1
			default:
				pick = int32(rng.Intn(int(cnt)))
			}
			rs.chosen = append(rs.chosen, pick)
		}

		switch rd.Collision {
		case RejectRound:
			clear(rs.pairSeen)
			conflict := false
			for i := range rs.active {
				rs.moveAt(i).ForEachPair(func(k game.PairKey) {
					if _, dup := rs.pairSeen[k]; dup {
						conflict = true
					}
					rs.pairSeen[k] = struct{}{}
				})
			}
			if conflict {
				res.Skipped += nAgents
				continue // nothing committed; the network is unchanged
			}
		case SkipOnConflict:
			clear(rs.pairCount)
			for i := range rs.active {
				rs.moveAt(i).ForEachPair(func(k game.PairKey) {
					rs.pairCount[k]++
				})
			}
		case FirstWriterWins:
			clear(rs.pairSeen)
		}

		// Commit in activation order. Committed moves touch pairwise
		// disjoint slots, so each stays applicable as its predecessors
		// land, and the per-move cache fold stays exact.
		committed := 0
		for i := range rs.active {
			mv := rs.moveAt(i)
			ok := true
			switch rd.Collision {
			case FirstWriterWins:
				mv.ForEachPair(func(k game.PairKey) {
					if _, dup := rs.pairSeen[k]; dup {
						ok = false
					}
				})
				if ok {
					mv.ForEachPair(func(k game.PairKey) {
						rs.pairSeen[k] = struct{}{}
					})
				}
			case SkipOnConflict:
				mv.ForEachPair(func(k game.PairKey) {
					if rs.pairCount[k] > 1 {
						ok = false
					}
				})
			}
			if !ok {
				res.Skipped++
				continue
			}
			if cfg.OnStep != nil {
				mv = mv.Clone()
			}
			e.commit(mv)
			res.Steps++
			committed++
			res.MoveKinds[mv.Kind()]++
			res.Kinds = append(res.Kinds, mv.Kind())
			if cfg.OnStep != nil {
				cfg.OnStep(res.Steps, mv.Agent, mv, g)
			}
			if res.Steps >= cfg.MaxSteps {
				break
			}
		}

		// States are compared at round boundaries; a round that committed
		// nothing left the state unchanged and must not intern (a stall is
		// not a cycle).
		if detect && committed > 0 {
			if first, ok := seenStep(); ok {
				res.Cycled = true
				res.CycleLen = res.Steps - first
				break
			}
			r.steps = append(r.steps, res.Steps)
		}
	}
	r.kinds = res.Kinds[:0]
	return res
}
