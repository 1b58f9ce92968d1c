package paper

import (
	"testing"

	"ncg/internal/cycles"
	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// TestRoundSchedulesDropThePotentialArgument pins README "Dynamics
// schedules" on the 14-agent SUM-SG start of examples/rounds. The paper's
// process is sequential, and for SUM-SG sequential max cost play converges
// (10 moves here). Simultaneous rounds drop the single-mover assumption
// the potential argument rests on: first-writer-wins rounds revisit a
// network and close a 6-move cycle after 31 moves, which SearchRoundCycle
// returns; skip-on-conflict rounds converge; reject-round stalls without
// committing a move. Singleton rounds (ActivePolicy) replay the sequential
// process move for move.
func TestRoundSchedulesDropThePotentialArgument(t *testing.T) {
	start := gen.RandomConnected(14, 28, gen.NewRand(33))
	base := dynamics.Config{
		Game: game.NewSwap(game.Sum), Policy: dynamics.MaxCost{},
		Tie: dynamics.TieFirst, Seed: 1, MaxSteps: 4000, DetectCycles: true,
	}
	play := func(sched dynamics.Scheduler) (dynamics.Result, []game.Move) {
		var moves []game.Move
		cfg := base
		cfg.Schedule = sched
		cfg.OnStep = func(_, _ int, mv game.Move, _ graph.Store) { moves = append(moves, mv.Clone()) }
		return dynamics.Run(start.Clone(), cfg), moves
	}

	seq, seqMoves := play(nil)
	if !seq.Converged || seq.Steps != 10 {
		t.Fatalf("sequential: converged=%v after %d moves, want convergence after 10", seq.Converged, seq.Steps)
	}
	named := func(name string) dynamics.Result {
		sched, ok := dynamics.ScheduleByName(name)
		if !ok {
			t.Fatalf("no schedule %q", name)
		}
		res, _ := play(sched)
		return res
	}
	if res := named("rounds"); !res.Cycled || res.CycleLen != 6 || res.Steps != 31 {
		t.Fatalf("rounds: cycled=%v (length %d) after %d moves, want a 6-move cycle after 31",
			res.Cycled, res.CycleLen, res.Steps)
	}
	if res := named("rounds-skip"); !res.Converged {
		t.Fatalf("rounds-skip: %+v, want convergence", res)
	}
	if res := named("rounds-reject"); res.Steps != 0 || res.Converged {
		t.Fatalf("rounds-reject: converged=%v after %d moves, want a stall with no move committed",
			res.Converged, res.Steps)
	}

	cfg := base
	cfg.Schedule = dynamics.Rounds{Active: dynamics.ActiveAll, Collision: dynamics.FirstWriterWins}
	fc, _ := cycles.SearchRoundCycle(start, cfg)
	if fc == nil || len(fc.Moves) != 6 {
		t.Fatalf("SearchRoundCycle: %v, want a 6-move cycle", fc)
	}

	single, singleMoves := play(dynamics.Rounds{Active: dynamics.ActivePolicy})
	if single.Steps != seq.Steps || single.Converged != seq.Converged || len(singleMoves) != len(seqMoves) {
		t.Fatalf("singleton rounds: converged=%v after %d moves, sequential converged=%v after %d",
			single.Converged, single.Steps, seq.Converged, seq.Steps)
	}
	for i, mv := range singleMoves {
		if !mv.Equal(seqMoves[i]) {
			t.Fatalf("singleton rounds move %d: %v, sequential %v", i, mv, seqMoves[i])
		}
	}
}
