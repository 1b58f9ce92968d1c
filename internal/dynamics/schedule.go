package dynamics

// Scheduler selects the move-activation regime of a process: who gets to
// move when, and against which network the moves are computed. The
// classical sequential process of the paper activates one unhappy agent
// per step; round-based schedules activate many agents at once, each
// computing a best response against the same immutable pre-round snapshot,
// and commit the responses together under a collision policy. The
// interface is sealed: Sequential and Rounds are the only implementations.
type Scheduler interface {
	// Name returns the schedule's registry name (see ScheduleByName).
	Name() string
	isScheduler()
}

// Sequential is the default schedule: the configured Policy activates one
// unhappy agent per step, exactly the process the paper analyses. It is
// played as the singleton round Rounds{Active: ActivePolicy}, with zero
// Rounds reported. A nil Config.Schedule selects it; runs under an
// explicit Sequential{} are bit-identical to runs under nil.
type Sequential struct{}

// Name implements Scheduler.
func (Sequential) Name() string { return "sequential" }

func (Sequential) isScheduler() {}

// ActiveSet selects which agents a round activates.
type ActiveSet int

const (
	// ActiveAll activates every unhappy agent, in increasing index order.
	ActiveAll ActiveSet = iota
	// ActiveShuffled activates every unhappy agent in an order drawn
	// uniformly at random each round (the round regime of randomized
	// rewiring experiments). The shuffle reorders commits, and with it
	// which move wins a collision.
	ActiveShuffled
	// ActivePolicy activates the single agent the configured Policy picks —
	// a singleton round. Sequential play is this round: Runner.Run plays a
	// nil or Sequential{} schedule as Rounds{Active: ActivePolicy}, so the
	// two differ only in the reported Rounds count.
	ActivePolicy
)

// Collision selects what happens when two activated agents' chosen moves
// touch a common edge slot (see game.MakePairKey) in the same round.
type Collision int

const (
	// FirstWriterWins commits moves in activation order; a move touching a
	// slot an earlier move already claimed is skipped.
	FirstWriterWins Collision = iota
	// SkipOnConflict skips every move involved in a collision — including
	// the first claimant — committing only moves whose slots nobody else
	// touched.
	SkipOnConflict
	// RejectRound discards the whole round when any collision occurs; the
	// network is unchanged and the next round starts fresh. Deterministic
	// configurations can stall under it, so runs are additionally bounded
	// by MaxSteps rounds.
	RejectRound
)

// Rounds is the simultaneous-move schedule: each round snapshots the
// network, activates an agent set, lets every activated agent compute a
// best response against the snapshot (in parallel over Config.Workers for
// games whose scans are read-only), and commits the responses in
// activation order under the collision policy. Commits within a round
// count as individual Steps; cycle detection compares states at round
// boundaries only.
type Rounds struct {
	// Active selects the per-round activation set.
	Active ActiveSet
	// Collision resolves same-round moves touching a common edge slot.
	Collision Collision
}

// Name implements Scheduler.
func (rd Rounds) Name() string {
	switch rd.Active {
	case ActivePolicy:
		return "rounds-policy"
	case ActiveShuffled:
		switch rd.Collision {
		case FirstWriterWins:
			return "rounds-shuffled"
		case SkipOnConflict:
			return "rounds-shuffled-skip"
		default:
			return "rounds-shuffled-reject"
		}
	default:
		switch rd.Collision {
		case FirstWriterWins:
			return "rounds"
		case SkipOnConflict:
			return "rounds-skip"
		default:
			return "rounds-reject"
		}
	}
}

func (Rounds) isScheduler() {}

// scheduleEntry pairs a registry name with its schedule.
type scheduleEntry struct {
	name  string
	sched Scheduler
}

// scheduleRegistry lists the named schedules, in help-text order.
func scheduleRegistry() []scheduleEntry {
	return []scheduleEntry{
		{"sequential", Sequential{}},
		{"rounds", Rounds{Active: ActiveAll, Collision: FirstWriterWins}},
		{"rounds-shuffled", Rounds{Active: ActiveShuffled, Collision: FirstWriterWins}},
		{"rounds-skip", Rounds{Active: ActiveAll, Collision: SkipOnConflict}},
		{"rounds-reject", Rounds{Active: ActiveAll, Collision: RejectRound}},
	}
}

// ScheduleNames lists the registry names accepted by ScheduleByName, in
// help-text order.
func ScheduleNames() []string {
	es := scheduleRegistry()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name
	}
	return names
}

// ScheduleByName resolves a registry name to its schedule.
func ScheduleByName(name string) (Scheduler, bool) {
	for _, e := range scheduleRegistry() {
		if e.name == name {
			return e.sched, true
		}
	}
	return nil, false
}
