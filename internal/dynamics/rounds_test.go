package dynamics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// roundsRandomGraph builds a random connected graph with random ownership
// (local copy of the game package's test helper).
func roundsRandomGraph(n, extra int, r *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		if r.Intn(2) == 0 {
			g.AddEdge(i, p)
		} else {
			g.AddEdge(p, i)
		}
	}
	for e := 0; e < extra; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func sameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Steps != got.Steps || want.Converged != got.Converged ||
		want.Cycled != got.Cycled || want.CycleLen != got.CycleLen ||
		want.MoveKinds != got.MoveKinds {
		t.Fatalf("%s: results differ:\nwant %+v\ngot  %+v", label, want, got)
	}
	if len(want.Kinds) != len(got.Kinds) {
		t.Fatalf("%s: trajectory lengths differ: %d vs %d", label, len(want.Kinds), len(got.Kinds))
	}
	for i := range want.Kinds {
		if want.Kinds[i] != got.Kinds[i] {
			t.Fatalf("%s: trajectories diverge at step %d: %v vs %v", label, i, want.Kinds[i], got.Kinds[i])
		}
	}
}

// refRun is the sequential process in plain form, the reference the one
// process loop is checked against: each step asks Policy.Pick on the
// unwrapped game with the run's fresh scratch, enumerates the mover's best
// moves, breaks the tie on the run's RNG, applies the move with
// game.ApplyMove, and detects a cycle by comparing the state with clones
// of the earlier ones under the game's state equality (the state's hash
// only narrows the comparisons). It returns the result and one line per
// step.
func refRun(g *graph.Graph, cfg Config) (Result, []string) {
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200*g.N() + 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := game.NewScratch(g.N())
	hash, same := (*graph.Graph).HashUnowned, (*graph.Graph).EqualUnowned
	if cfg.Game.OwnershipMatters() {
		hash, same = (*graph.Graph).Hash, (*graph.Graph).Equal
	}
	type visit struct {
		step  int
		state *graph.Graph
	}
	seen := map[uint64][]visit{hash(g): {{0, g.Clone()}}}
	var res Result
	var steps []string
	var moves []game.Move
	for res.Steps < maxSteps {
		mover := cfg.Policy.Pick(g, cfg.Game, s, rng)
		if mover < 0 {
			res.Converged = true
			break
		}
		moves, _ = cfg.Game.BestMoves(g, mover, s, moves[:0])
		var mv game.Move
		switch cfg.Tie {
		case TieFirst:
			mv = moves[0]
		case TieLast:
			mv = moves[len(moves)-1]
		default:
			mv = moves[rng.Intn(len(moves))]
		}
		mv = mv.Clone()
		game.ApplyMove(g, mv)
		res.Steps++
		res.MoveKinds[mv.Kind()]++
		res.Kinds = append(res.Kinds, mv.Kind())
		steps = append(steps, fmt.Sprintf("%d:%d:%v", res.Steps, mover, mv))
		if !cfg.DetectCycles {
			continue
		}
		h := hash(g)
		for _, v := range seen[h] {
			if same(g, v.state) {
				res.Cycled = true
				res.CycleLen = res.Steps - v.step
				return res, steps
			}
		}
		seen[h] = append(seen[h], visit{res.Steps, g.Clone()})
	}
	return res, steps
}

// TestRoundsSingletonMatchesSequential checks the one process loop against
// refRun: runs under a nil schedule, an explicit Sequential{} and singleton
// rounds (Rounds{Active: ActivePolicy}) must each reproduce the reference
// move for move — same movers, moves, result and final network — with
// zero Rounds reported for the two sequential forms and one round per move
// for the rounds form. The matrix spans every built-in policy, every tie
// rule, cycle detection on and off, Workers 1 and 4, random starts of
// 10..23 agents (naive scans), one 72-agent start, which runs the delta
// scans over the cost cache, and the cycling Figure 2 start.
func TestRoundsSingletonMatchesSequential(t *testing.T) {
	t.Parallel()
	type gameCase struct {
		name string
		mk   func() game.Game
	}
	games := []gameCase{
		{"sum-sg", func() game.Game { return game.NewSwap(game.Sum) }},
		{"max-asg", func() game.Game { return game.NewAsymSwap(game.Max) }},
		{"sum-gbg", func() game.Game { return game.NewGreedyBuy(game.Sum, game.NewAlpha(3, 2)) }},
	}
	lastUnhappy := Adversarial{Choose: func(_ graph.Store, unhappy []int) int { return unhappy[len(unhappy)-1] }}
	policies := []Policy{MaxCost{}, MaxCostDeterministic{}, Random{}, MinIndex{}, lastUnhappy}
	ties := []TieBreak{TieRandom, TieFirst, TieLast}
	scheds := []Scheduler{nil, Sequential{}, Rounds{Active: ActivePolicy}}
	r := rand.New(rand.NewSource(71))
	type start struct {
		g    *graph.Graph
		seed int64
	}
	var small []start
	for range 2 {
		small = append(small, start{roundsRandomGraph(10+r.Intn(14), r.Intn(8), r), r.Int63()})
	}
	large := start{roundsRandomGraph(72, 6, r), r.Int63()}
	// One runner plays every check, so each run also meets arenas left by
	// another size, game, policy or worker count.
	runner := NewRunner()
	cycled := 0
	check := func(st start, gc gameCase, pol Policy, tie TieBreak, workers int, detect bool) {
		cfg := Config{Game: gc.mk(), Policy: pol, Tie: tie, Seed: st.seed, Workers: workers, DetectCycles: detect}
		wantG := st.g.Clone()
		want, wantSteps := refRun(wantG, cfg)
		if want.Cycled {
			cycled++
		}
		for _, sched := range scheds {
			c := cfg
			c.Game, c.Schedule = gc.mk(), sched
			var gotSteps []string
			c.OnStep = func(step, mover int, mv game.Move, _ graph.Store) {
				gotSteps = append(gotSteps, fmt.Sprintf("%d:%d:%v", step, mover, mv))
			}
			g := st.g.Clone()
			got := runner.Run(g, c)
			name := "nil"
			if sched != nil {
				name = sched.Name()
			}
			label := fmt.Sprintf("n=%d %s/%s/%s workers=%d detect=%v %s", st.g.N(), gc.name, pol.Name(), tie, workers, detect, name)
			sameResult(t, label, want, got)
			if !slices.Equal(gotSteps, wantSteps) {
				t.Fatalf("%s: moves %v, reference %v", label, gotSteps, wantSteps)
			}
			if !g.Equal(wantG) {
				t.Fatalf("%s: final networks differ", label)
			}
			if _, rounds := sched.(Rounds); rounds {
				if got.Rounds != got.Steps || got.Skipped != 0 {
					t.Fatalf("%s: %d rounds and %d skipped moves for %d steps, want one round per move", label, got.Rounds, got.Skipped, got.Steps)
				}
			} else if got.Rounds != 0 || got.Skipped != 0 {
				t.Fatalf("%s: sequential run reports %d rounds and %d skipped moves", label, got.Rounds, got.Skipped)
			}
		}
	}
	for _, gc := range games {
		for _, pol := range policies {
			for ti, tie := range ties {
				for _, workers := range []int{1, 4} {
					for i, st := range small {
						check(st, gc, pol, tie, workers, (i+ti)%2 == 0)
					}
				}
			}
		}
		// On the 72-agent start the engine builds the cost cache when it
		// is reset, and the cache serves the delta scans as their oracle.
		// The reference's picks run without it, and its MinIndex and
		// Adversarial picks probe agent after agent, which takes seconds
		// per run here, so the start plays the other three policies.
		for i, pol := range policies[:3] {
			for _, workers := range []int{1, 4} {
				check(large, gc, pol, ties[i], workers, true)
			}
		}
	}
	// Every state of Figure 2's MAX-SG cycle has exactly one unhappy
	// agent, so every policy closes the three-move cycle under TieFirst.
	// The SG's state is its edge set: scrambled owners must not hide the
	// repeat.
	maxSG := gameCase{"max-sg", func() game.Game { return game.NewSwap(game.Max) }}
	scrambled := fig2Like()
	scrambled.SetOwner(2, 0)
	scrambled.SetOwner(7, 1)
	for _, g := range []*graph.Graph{fig2Like(), scrambled} {
		for _, pol := range policies {
			for _, workers := range []int{1, 4} {
				check(start{g, 1}, maxSG, pol, TieFirst, workers, true)
			}
		}
	}
	if cycled == 0 {
		t.Fatal("no reference run cycled; the cycle-detection comparison went unchecked")
	}
}

// TestRoundsSingletonCycles: the known Figure 2 MAX-SG cycle is detected
// identically under singleton rounds.
func TestRoundsSingletonCycles(t *testing.T) {
	cfg := Config{
		Game:         game.NewSwap(game.Max),
		Policy:       MaxCost{},
		Tie:          TieFirst,
		Seed:         1,
		DetectCycles: true,
	}
	g1 := fig2Like()
	want := Run(g1, cfg)
	if !want.Cycled {
		t.Fatal("sequential reference run did not cycle")
	}
	cfg.Schedule = Rounds{Active: ActivePolicy}
	g2 := fig2Like()
	got := Run(g2, cfg)
	if !got.Cycled || got.CycleLen != want.CycleLen || got.Steps != want.Steps {
		t.Fatalf("singleton rounds: want cycle (steps=%d len=%d), got %+v", want.Steps, want.CycleLen, got)
	}
	if !g1.Equal(g2) {
		t.Fatal("final networks differ")
	}
}

// TestSequentialExplicitMatchesNil: an explicit Sequential{} schedule is
// the nil schedule, bit for bit.
func TestSequentialExplicitMatchesNil(t *testing.T) {
	g := gen.BudgetNetwork(20, 3, gen.NewRand(5))
	cfg := Config{Game: game.NewAsymSwap(game.Sum), Seed: 11, DetectCycles: true}
	g1, g2 := g.Clone(), g.Clone()
	want := Run(g1, cfg)
	cfg.Schedule = Sequential{}
	got := Run(g2, cfg)
	sameResult(t, "sequential/nil", want, got)
	if !g1.Equal(g2) {
		t.Fatal("final networks differ")
	}
}

// TestRoundsWorkerInvariance: round records are bit-identical at any
// worker count — parallel scans and parallel unhappy probes never leak
// scheduling into the trace — across active sets, collision policies and
// a scan-impure game (which runs its scans serially).
func TestRoundsWorkerInvariance(t *testing.T) {
	scheds := []Scheduler{
		Rounds{Active: ActiveAll, Collision: FirstWriterWins},
		Rounds{Active: ActiveShuffled, Collision: FirstWriterWins},
		Rounds{Active: ActiveAll, Collision: SkipOnConflict},
		Rounds{Active: ActiveAll, Collision: RejectRound},
	}
	games := []struct {
		mk   func(n int) game.Game
		n    int // the Buy game's exhaustive scans are exponential in n
		span int
	}{
		{func(int) game.Game { return game.NewSwap(game.Sum) }, 12, 12},
		{func(n int) game.Game { return game.NewGreedyBuy(game.Sum, game.NewAlpha(3, 2)) }, 12, 12},
		{func(int) game.Game { return game.NewBuy(game.Sum, game.AlphaInt(2)) }, 6, 3}, // scan-impure
	}
	r := rand.New(rand.NewSource(73))
	base := NewRunner()
	other := NewRunner()
	for _, gc := range games {
		mk := gc.mk
		for _, sched := range scheds {
			for trial := 0; trial < 3; trial++ {
				n := gc.n + r.Intn(gc.span)
				g := roundsRandomGraph(n, r.Intn(6), r)
				seed := r.Int63()
				cfg := Config{
					Game:         mk(n),
					Tie:          TieRandom,
					Seed:         seed,
					Workers:      1,
					Schedule:     sched,
					DetectCycles: true,
					MaxSteps:     400,
				}
				g1 := g.Clone()
				want := base.Run(g1, cfg)
				want.Kinds = append([]game.MoveKind(nil), want.Kinds...)
				for _, workers := range []int{3, 8} {
					cfg2 := cfg
					cfg2.Game = mk(n)
					cfg2.Workers = workers
					g2 := g.Clone()
					got := other.Run(g2, cfg2)
					if want.Rounds != got.Rounds || want.Skipped != got.Skipped {
						t.Fatalf("%s workers=%d: rounds/skips differ: %d/%d vs %d/%d",
							sched.Name(), workers, want.Rounds, want.Skipped, got.Rounds, got.Skipped)
					}
					sameResult(t, sched.Name(), want, got)
					if !g1.Equal(g2) {
						t.Fatalf("%s workers=%d: final networks differ", sched.Name(), workers)
					}
				}
			}
		}
	}
}

// conflictInstance builds a 6-agent greedy-buy instance whose first round
// provably collides: agent 0's unique best response is buying edge {0,3}
// and agent 3's tie-first best response is buying {3,0} — the same slot
// from both ends. Agents 1, 4 and 5 are also unhappy, with best responses
// on disjoint slots; agent 2 is happy.
func conflictInstance() (*graph.Graph, game.Game) {
	g := graph.New(6)
	g.AddEdge(0, 1) // path 0-1-2-3, owned left to right
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(4, 3) // pendants 4, 5 own their edges to 3
	g.AddEdge(5, 3)
	return g, game.NewGreedyBuy(game.Sum, game.NewAlpha(3, 2))
}

// TestRoundsFirstWriterWins: under first-writer-wins, agent 0 (earlier in
// activation order) buys the contested slot and agent 3's response is
// skipped; every non-conflicting response commits.
func TestRoundsFirstWriterWins(t *testing.T) {
	g, gm := conflictInstance()
	var movers []int
	var first game.Move
	res := Run(g, Config{
		Game:     gm,
		Tie:      TieFirst,
		Schedule: Rounds{Active: ActiveAll, Collision: FirstWriterWins},
		MaxSteps: 4, // exactly the four round-1 commits
		OnStep: func(step, mover int, mv game.Move, g graph.Store) {
			if step == 1 {
				first = mv
			}
			movers = append(movers, mover)
		},
	})
	if res.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1 (agent 3's colliding buy)", res.Skipped)
	}
	if res.Rounds != 1 || res.Steps != 4 {
		t.Fatalf("Rounds=%d Steps=%d, want 1 round of 4 commits", res.Rounds, res.Steps)
	}
	if first.Agent != 0 || len(first.Add) != 1 || first.Add[0] != 3 || len(first.Drop) != 0 {
		t.Fatalf("first commit = %+v, want agent 0 buying {0,3}", first)
	}
	want := []int{0, 1, 4, 5}
	for i, m := range movers {
		if m != want[i] {
			t.Fatalf("commit order %v, want %v", movers, want)
		}
	}
	if !g.HasEdge(0, 3) {
		t.Fatal("contested edge {0,3} missing after the round")
	}
}

// TestRoundsSkipOnConflict: under skip-on-conflict, both parties to the
// collision are withheld — the contested slot stays empty — while the
// disjoint responses commit.
func TestRoundsSkipOnConflict(t *testing.T) {
	g, gm := conflictInstance()
	var movers []int
	res := Run(g, Config{
		Game:     gm,
		Tie:      TieFirst,
		Schedule: Rounds{Active: ActiveAll, Collision: SkipOnConflict},
		MaxSteps: 3, // exactly the three round-1 commits
		OnStep: func(step, mover int, mv game.Move, g graph.Store) {
			movers = append(movers, mover)
		},
	})
	if res.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2 (both parties)", res.Skipped)
	}
	if res.Rounds != 1 || res.Steps != 3 {
		t.Fatalf("Rounds=%d Steps=%d, want 1 round of 3 commits", res.Rounds, res.Steps)
	}
	want := []int{1, 4, 5}
	for i, m := range movers {
		if m != want[i] {
			t.Fatalf("commit order %v, want %v", movers, want)
		}
	}
	if g.HasEdge(0, 3) {
		t.Fatal("contested edge {0,3} present; both claimants should have been skipped")
	}
}

// TestRoundsRejectRound: a colliding round commits nothing, and since the
// network (and the deterministic tie-breaking) is unchanged, the process
// stalls until the round bound.
func TestRoundsRejectRound(t *testing.T) {
	g, gm := conflictInstance()
	before := g.Clone()
	res := Run(g, Config{
		Game:     gm,
		Tie:      TieFirst,
		Schedule: Rounds{Active: ActiveAll, Collision: RejectRound},
		MaxSteps: 4,
	})
	if res.Steps != 0 || res.Converged {
		t.Fatalf("Steps=%d Converged=%v, want a fully rejected stall", res.Steps, res.Converged)
	}
	if res.Rounds != 4 {
		t.Fatalf("Rounds = %d, want the MaxSteps round bound 4", res.Rounds)
	}
	if res.Skipped != 4*5 {
		t.Fatalf("Skipped = %d, want 20 (5 active agents x 4 rejected rounds)", res.Skipped)
	}
	if !g.Equal(before) {
		t.Fatal("rejected rounds mutated the network")
	}
}

// TestRoundsOutcomes: round dynamics terminate, and a converged run really
// reached a stable network. Unlike the sequential sum-SG process (where
// the sum of distances is a potential, Theorem 2.2), simultaneous rounds
// can oscillate — agents keep reacting to the same snapshot of each other —
// so non-convergence is a legitimate outcome here, reported as a cycle or
// a step-bound abort rather than asserted away.
func TestRoundsOutcomes(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	converged, cycled := 0, 0
	gm := game.NewSwap(game.Sum)
	for _, sched := range []Scheduler{
		Rounds{Active: ActiveAll, Collision: FirstWriterWins},
		Rounds{Active: ActiveShuffled, Collision: FirstWriterWins},
		Rounds{Active: ActiveAll, Collision: SkipOnConflict},
	} {
		for trial := 0; trial < 6; trial++ {
			n := 10 + r.Intn(10)
			g := roundsRandomGraph(n, r.Intn(6), r)
			res := Run(g, Config{
				Game: gm, Tie: TieRandom, Seed: r.Int63(),
				Schedule: sched, DetectCycles: true,
			})
			switch {
			case res.Converged:
				converged++
				if res.Cycled {
					t.Fatalf("%s: run both converged and cycled", sched.Name())
				}
				if !Stable(g, gm) {
					t.Fatalf("%s: converged network is not stable", sched.Name())
				}
			case res.Cycled:
				cycled++
				if res.CycleLen <= 0 || res.CycleLen > res.Steps {
					t.Fatalf("%s: implausible cycle length %d after %d steps",
						sched.Name(), res.CycleLen, res.Steps)
				}
			}
			if res.Rounds <= 0 {
				t.Fatalf("%s: no rounds played", sched.Name())
			}
		}
	}
	// The seeds above produce both outcomes; if they ever stop doing so the
	// test has lost its discriminating power and should get new seeds.
	if converged == 0 || cycled == 0 {
		t.Fatalf("outcome mix degenerated: %d converged, %d cycled", converged, cycled)
	}
}

// TestScheduleRegistry: names round-trip and unknown names are rejected.
func TestScheduleRegistry(t *testing.T) {
	names := ScheduleNames()
	if len(names) != 5 || names[0] != "sequential" {
		t.Fatalf("ScheduleNames() = %v", names)
	}
	for _, name := range names {
		s, ok := ScheduleByName(name)
		if !ok {
			t.Fatalf("ScheduleByName(%q) unknown", name)
		}
		if s.Name() != name {
			t.Fatalf("ScheduleByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, ok := ScheduleByName("simultaneous"); ok {
		t.Fatal("unknown schedule name accepted")
	}
	if n := (Rounds{Active: ActivePolicy}).Name(); n != "rounds-policy" {
		t.Fatalf("rounds-policy name = %q", n)
	}
}
