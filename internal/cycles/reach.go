package cycles

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/state"
)

// ReachResult summarizes an exhaustive exploration of the improving-move
// state graph from an initial network.
// When the exploration aborts at its state cap, States is exactly
// maxStates+1 and the stability flags are reset to their initial values
// (StableReachable false, BestResponseClosed true) — only States carries
// information about an aborted run; on a completed exploration every
// field is exact.
type ReachResult struct {
	// States is the number of distinct states reachable from the start
	// (including the start itself) via sequences of improving moves.
	States int
	// StableReachable reports whether any reachable state is stable. If
	// false, the game is provably not weakly acyclic: no sequence of
	// improving moves starting at the initial network can ever converge.
	StableReachable bool
	// BestResponseClosed reports whether restricting agents to best
	// responses also reaches no stable state (only meaningful when
	// exploreBest was requested).
	BestResponseClosed bool
}

// ExploreOptions parameterizes Explore.
type ExploreOptions struct {
	// MaxStates aborts the exploration with an error once more distinct
	// states than this are encountered, so callers control the blow-up.
	MaxStates int
	// BestResponse restricts expansion to best-response moves.
	BestResponse bool
	// Workers fans the frontier expansion of each depth level out over
	// this many goroutines (0 = GOMAXPROCS). Results are identical at any
	// worker count: states are deduplicated in the shared intern store and
	// every level ends with a barrier and a canonical reordering.
	Workers int
	// Progress, if non-nil, runs after every completed depth level (on the
	// calling goroutine), for long explorations that want to report.
	Progress func(ExploreProgress)
	// Cancel, if non-nil, aborts the exploration at the next level barrier
	// once closed, returning ErrCancelled — the graceful-shutdown seam of
	// long explorations (wired to the interrupt context by cmd/ncgcycle).
	Cancel <-chan struct{}
}

// ErrCancelled reports an exploration stopped by its Cancel channel.
var ErrCancelled = errors.New("cycles: exploration cancelled")

// ExploreProgress is the per-level report of an exploration.
type ExploreProgress struct {
	// Level is the completed BFS depth (1 after the start state's moves).
	Level int
	// States is the number of distinct states interned so far.
	States int
	// Frontier is the number of fresh states awaiting expansion.
	Frontier int
	// Bytes is the intern-arena footprint so far.
	Bytes int64
}

// ExploreImproving exhaustively expands every improving move of every agent
// from start, deduplicating states (ownership-aware when the game requires
// it), and reports whether a stable state is reachable. It fails with an
// error if more than maxStates distinct states are encountered, so callers
// control the blow-up. This machine-checks the non-weak-acyclicity claims
// of Corollaries 3.6 and 4.2 in their strongest form.
func ExploreImproving(start *graph.Graph, gm game.Game, maxStates int) (ReachResult, error) {
	return Explore(start, gm, ExploreOptions{MaxStates: maxStates, Workers: 1})
}

// ExploreBestResponse is ExploreImproving restricted to best-response
// moves; if no stable state is reachable, the game is not weakly acyclic
// under best response from this start (Theorem 3.3's notion).
func ExploreBestResponse(start *graph.Graph, gm game.Game, maxStates int) (ReachResult, error) {
	return Explore(start, gm, ExploreOptions{MaxStates: maxStates, BestResponse: true, Workers: 1})
}

// expWorker is the per-goroutine arena of the frontier expansion: a decode
// target with an attached incremental fingerprint, game scratch, a
// per-state distance oracle, encode and decode buffers, and the fresh
// states found this level.
type expWorker struct {
	g      *graph.Graph
	fp     state.Fingerprint
	s      *game.Scratch
	orc    *stateOracle
	enc    []uint64
	dec    []uint64
	moves  []game.Move
	fresh  []state.Ref
	stable bool
}

// stateOracle serves exact all-pairs distances of the worker's current
// state, rebuilt once per expanded state with the batched bit-parallel BFS
// kernel (64 sources per pass). Installed as the scratch's game.DistOracle
// it lets the delta scans score additions searchlessly and prune hopeless
// swap targets — the same acceleration the dynamics engine's incremental
// cache provides during process runs.
type stateOracle struct {
	n     int
	d     []int32
	res   []graph.BFSResult
	batch *graph.BatchBFSScratch
}

func newStateOracle(n int) *stateOracle {
	return &stateOracle{
		n:     n,
		d:     make([]int32, n*n),
		res:   make([]graph.BFSResult, n),
		batch: graph.NewBatchBFSScratch(n),
	}
}

func (o *stateOracle) build(g *graph.Graph) { g.AllSourcesBFSFlat(o.d, o.res, o.batch) }

// Row implements game.DistOracle.
func (o *stateOracle) Row(v int) []int32 { return o.d[v*o.n : (v+1)*o.n] }

// Explore runs the exhaustive reachability analysis as a level-synchronous
// parallel frontier expansion over an interned state store: every distinct
// state is stored once as a compact canonical encoding (no graph clones),
// successor states are identified by an incrementally maintained Zobrist
// fingerprint with byte-exact verification, and each depth level of the
// state graph is expanded by a worker pool over a sharded intern table.
func Explore(start *graph.Graph, gm game.Game, opt ExploreOptions) (ReachResult, error) {
	n := start.N()
	owned := gm.OwnershipMatters()
	maxStates := opt.MaxStates
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if game.PreferNaiveScan(gm, start) {
		// Small networks and MAX-swap trees: the reference full-BFS scans
		// enumerate identical moves in identical order and beat the delta
		// machinery's bookkeeping in this regime (same switch the dynamics
		// runner makes).
		gm = game.Naive(gm)
	}
	useOracle := !game.IsNaive(gm)
	tables := state.NewTables(n)
	shards := 1
	if workers > 1 {
		shards = 4 * workers
	}
	store := state.NewStore(n, owned, shards)

	ws := make([]*expWorker, workers)
	for i := range ws {
		ws[i] = &expWorker{g: graph.New(n), s: game.NewScratch(n)}
		ws[i].fp.Attach(tables, ws[i].g)
		if useOracle {
			ws[i].orc = newStateOracle(n)
			ws[i].s.SetDistOracle(ws[i].orc)
		}
	}

	// Intern the start state. Like the states the store hands back, the
	// worker copy is canonical; for ownership-blind games enumeration is
	// ownership-invariant, so expanding representatives is exact.
	w0 := ws[0]
	w0.g.CopyFrom(start)
	w0.fp.Init(tables, w0.g)
	w0.enc = store.Encode(w0.g, w0.enc[:0])
	rootRef, _ := store.Intern(w0.fp.Hash(owned), w0.enc)
	res := ReachResult{States: 1, BestResponseClosed: true}

	var exceeded atomic.Bool
	expand := func(w *expWorker, ref state.Ref) {
		h, dec := store.Snapshot(ref, w.dec[:0])
		w.dec = dec
		store.LoadEncoding(w.g, dec)
		w.fp.ForceHash(owned, h)
		if w.orc != nil {
			// One batched all-sources pass gives the scans exact distances
			// of this state; moves applied below are interned, never
			// scanned, so the oracle stays valid for the whole expansion.
			w.orc.build(w.g)
		}
		stable := true
		for u := 0; u < n; u++ {
			if opt.BestResponse {
				w.moves, _ = gm.BestMoves(w.g, u, w.s, w.moves[:0])
			} else {
				w.moves = gm.ImprovingMoves(w.g, u, w.s, w.moves[:0])
			}
			if len(w.moves) > 0 {
				stable = false
			}
			for _, m := range w.moves {
				ap := game.Apply(w.g, m)
				w.enc = store.Encode(w.g, w.enc[:0])
				ref2, fresh := store.Intern(w.fp.Hash(owned), w.enc)
				ap.Undo()
				if fresh {
					w.fresh = append(w.fresh, ref2)
					if store.Count() > maxStates {
						exceeded.Store(true)
						return
					}
				}
			}
		}
		if stable {
			w.stable = true
		}
	}

	frontier := []state.Ref{rootRef}
	level := 0
	for len(frontier) > 0 {
		select {
		case <-opt.Cancel:
			return ReachResult{States: res.States, BestResponseClosed: true}, ErrCancelled
		default:
		}
		if workers == 1 {
			for _, ref := range frontier {
				expand(w0, ref)
				if exceeded.Load() {
					break
				}
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func(w *expWorker) {
					defer wg.Done()
					for !exceeded.Load() {
						i := int(next.Add(1)) - 1
						if i >= len(frontier) {
							return
						}
						expand(w, frontier[i])
					}
				}(w)
			}
			wg.Wait()
		}
		res.States = store.Count()
		frontier = frontier[:0]
		for _, w := range ws {
			frontier = append(frontier, w.fresh...)
			w.fresh = w.fresh[:0]
			if w.stable {
				// Folded even when this level aborts: a completed expansion
				// of a stable state counts as "expanded before the abort"
				// (a stable state interns nothing, so it can never be the
				// expansion that trips the cap).
				res.StableReachable = true
				res.BestResponseClosed = false
				w.stable = false
			}
		}
		if exceeded.Load() {
			// Workers may intern a handful of states past the cap before
			// observing the abort flag, and which expansions completed on
			// the aborting level is scheduling-dependent; clamp the count
			// and reset the stability flags so an aborted result is
			// deterministic in every field at any worker count.
			return ReachResult{States: maxStates + 1, BestResponseClosed: true},
				errCapExceeded(maxStates)
		}
		if workers > 1 {
			// Deterministic state numbering: with several workers the
			// intern order within a level is scheduling-dependent, so the
			// next frontier is reordered by canonical encoding.
			sortRefs(store, frontier)
		}
		level++
		if opt.Progress != nil {
			opt.Progress(ExploreProgress{
				Level:    level,
				States:   res.States,
				Frontier: len(frontier),
				Bytes:    store.Bytes(),
			})
		}
	}
	return res, nil
}

// errCapExceeded is the exploration-abort error of both the interned
// explorer and the reference implementation in the parity tests.
func errCapExceeded(maxStates int) error {
	return fmt.Errorf("cycles: state space exceeds %d states", maxStates)
}

// sortRefs orders refs by their canonical encodings (lexicographically by
// word), a total order on distinct states.
func sortRefs(store *state.Store, refs []state.Ref) {
	sort.Slice(refs, func(i, j int) bool {
		return slices.Compare(store.Encoding(refs[i]), store.Encoding(refs[j])) < 0
	})
}

// FoundCycle is a best-response cycle discovered by FindBestResponseCycle:
// Moves[i] transforms States[i] into States[i+1], and the final move leads
// back to States[0]. For games whose state ignores ownership, States carry
// the store's canonical orientation (smaller endpoint owns), which such
// games never consult; the cycle closes under the game's own state
// equality.
type FoundCycle struct {
	States []*graph.Graph
	Moves  []game.Move
}

// FindBestResponseCycle searches the best-response state graph reachable
// from start for a directed cycle and returns the first one found (nil if
// the explored space — capped at maxStates — is acyclic). A non-nil result
// proves the game admits a best response cycle from this initial network.
// Visited states live in the interned state store — one compact encoding
// each, no clones — and are recognized by fingerprint with byte
// verification.
func FindBestResponseCycle(start *graph.Graph, gm game.Game, maxStates int) *FoundCycle {
	fc, _ := SearchBestResponseCycle(start, gm, maxStates)
	return fc
}

// SearchBestResponseCycle is FindBestResponseCycle reporting, in addition,
// the number of distinct states interned before the search stopped — the
// campaign spine's per-instance work measure. The search is deterministic,
// so the count is exact: the full reachable-space size when the search
// completes below the cap. An aborted search stops descending once the
// cap is crossed but still interns the in-progress expansions' remaining
// successors on the way out (unchanged from FindBestResponseCycle's
// long-standing behaviour), so the reported count may overshoot the cap.
func SearchBestResponseCycle(start *graph.Graph, gm game.Game, maxStates int) (*FoundCycle, int) {
	n := start.N()
	if game.PreferNaiveScan(gm, start) {
		// The routing rule of Explore and the dynamics runner: the naive
		// scans enumerate identical moves in identical order.
		gm = game.Naive(gm)
	}
	owned := gm.OwnershipMatters()
	tables := state.NewTables(n)
	store := state.NewStore(n, owned, 1)
	g := start.Clone()
	var fp state.Fingerprint
	fp.Attach(tables, g)
	defer g.SetObserver(nil)
	s := game.NewScratch(n)

	var enc []uint64
	intern := func() (state.Ref, bool) {
		enc = store.Encode(g, enc[:0])
		return store.Intern(fp.Hash(owned), enc)
	}
	rootRef, _ := intern()
	count := 1
	// Single-shard refs are dense, so per-state flags live in a slice.
	onStack := []bool{false}

	var stackRefs []state.Ref
	var stackMoves []game.Move
	var found *FoundCycle

	var dfs func(ref state.Ref)
	dfs = func(ref state.Ref) {
		if found != nil || count > maxStates {
			return
		}
		onStack[ref] = true
		stackRefs = append(stackRefs, ref)
		var moves []game.Move
		for u := 0; u < n && found == nil; u++ {
			// Clone the batch: the recursive dfs below rescans with the
			// shared scratch, which reuses the enumeration move pool.
			moves, _ = gm.BestMoves(g, u, s, moves[:0])
			moves = game.CloneMoves(moves)
			for _, m := range moves {
				ap := game.Apply(g, m)
				ref2, fresh := intern()
				switch {
				case fresh:
					count++
					onStack = append(onStack, false)
					stackMoves = append(stackMoves, m)
					dfs(ref2)
					stackMoves = stackMoves[:len(stackMoves)-1]
				case onStack[ref2]:
					// Cycle: from ref2 around the stack back.
					first := 0
					for i, r := range stackRefs {
						if r == ref2 {
							first = i
							break
						}
					}
					fc := &FoundCycle{}
					for i := first; i < len(stackRefs); i++ {
						sg := graph.New(n)
						store.Decode(stackRefs[i], sg)
						fc.States = append(fc.States, sg)
					}
					fc.Moves = append(fc.Moves, stackMoves[first:]...)
					fc.Moves = append(fc.Moves, m)
					found = fc
				}
				ap.Undo()
				if found != nil {
					break
				}
			}
		}
		onStack[ref] = false
		stackRefs = stackRefs[:len(stackRefs)-1]
	}
	dfs(rootRef)
	return found, count
}
