// Package ensemble runs seeded trial ensembles of every game variant on
// the record spine (internal/spine): a registry of named scenarios (game x
// alpha schedule x policy x tie-break x initial-network ensemble) and the
// trial task that fans trial ranges over a worker pool with per-trial
// deterministic seed streams, streams per-trial records to pluggable sinks
// (JSONL, CSV, callbacks) and resumes from partial JSONL checkpoints. Results are bit-identical for
// any worker count and any shard size; the empirical figures of the paper
// (internal/experiments) are thin queries over this spine.
package ensemble

import (
	"fmt"

	"ncg/internal/dynamics"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// PolicyKind selects a move policy by name; it is the serializable form of
// dynamics.Policy used by scenarios and sweep layers.
type PolicyKind int

const (
	// MaxCost is the max cost policy of Section 3.4.1 (random ties among
	// equal-cost agents).
	MaxCost PolicyKind = iota
	// Random is the random policy of Section 3.4.1.
	Random
	// MaxCostDeterministic is the max cost policy with smallest-index
	// tie-breaking, the rule of the Theorem 2.11 trace and Figure 1.
	MaxCostDeterministic
	// MinIndex always moves the unhappy agent with the smallest index.
	MinIndex
)

// policyKinds spans the valid PolicyKind values.
var policyKinds = []PolicyKind{MaxCost, Random, MaxCostDeterministic, MinIndex}

func (p PolicyKind) String() string {
	switch p {
	case MaxCost:
		return "max cost"
	case Random:
		return "random"
	case MaxCostDeterministic:
		return "max cost det"
	case MinIndex:
		return "min index"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// Policy returns the dynamics policy the kind names.
func (p PolicyKind) Policy() dynamics.Policy {
	switch p {
	case Random:
		return dynamics.Random{}
	case MaxCostDeterministic:
		return dynamics.MaxCostDeterministic{}
	case MinIndex:
		return dynamics.MinIndex{}
	}
	return dynamics.MaxCost{}
}

// PolicyKindByName returns the kind with the given String form.
func PolicyKindByName(name string) (PolicyKind, bool) {
	for _, p := range policyKinds {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Family identifies one of the five implemented game variants.
type Family string

const (
	FamilySwap      Family = "sg"        // Swap Game (Alon et al.)
	FamilyAsymSwap  Family = "asg"       // Asymmetric Swap Game
	FamilyGreedyBuy Family = "gbg"       // Greedy Buy Game
	FamilyBuy       Family = "bg"        // Buy Game (Fabrikant et al.)
	FamilyBilateral Family = "bilateral" // bilateral equal-split Buy Game
)

// Families lists the five game variants every registry must be able to
// span.
func Families() []Family {
	return []Family{FamilySwap, FamilyAsymSwap, FamilyGreedyBuy, FamilyBuy, FamilyBilateral}
}

// Scenario is one named, registrable workload: everything needed to run an
// ensemble of seeded trials at any agent count. The zero tie-break is
// TieRandom, matching the experimental setup of the paper.
type Scenario struct {
	// Name is the registry key (kebab-case, e.g. "fig7-asg-sum-k2").
	Name string
	// Description is a one-line summary shown by listings.
	Description string
	// Family is the game variant the scenario plays.
	Family Family
	// NewGame builds the game for agent count n (alpha may depend on n).
	NewGame func(n int) game.Game
	// NewInitial draws a random initial network from the scenario's
	// ensemble.
	NewInitial func(n int, r *gen.Rand) *graph.Graph
	// NewSparse, if non-nil, draws the same ensemble directly into the
	// CSR backend — it must consume r exactly like NewInitial and yield
	// the CSR image of the network NewInitial would build, so a trial is
	// bit-identical whichever constructor runs. Trials whose resolved
	// backend is sparse use it when present and otherwise convert the
	// dense draw; at agent counts where the dense bitset cannot even be
	// allocated, NewSparse is what makes the scenario runnable.
	NewSparse func(n int, r *gen.Rand) *graph.Sparse
	// CheckN, if non-nil, validates an agent count before any trial runs.
	// Execute rejects a grid containing an invalid n up front, so an
	// infeasible parameter combination (e.g. a budget-k ensemble with
	// n <= 2k) surfaces as a configuration error instead of a generator
	// panic deep inside a worker.
	CheckN func(n int) error
	// Policy selects the move policy.
	Policy PolicyKind
	// Tie breaks among best moves (zero value: random ties).
	Tie dynamics.TieBreak
	// Ns is the default agent-count grid.
	Ns []int
	// Trials is the default number of trials per agent count.
	Trials int
	// Seed is the default base seed; every (n, trial) pair derives its own
	// stream from it.
	Seed int64
	// MaxSteps caps each run (0: dynamics default).
	MaxSteps int
	// DetectCycles records visited states during each run and stops on a
	// repeat, proving non-convergence of the played trajectory; useful for
	// the variants without a convergence guarantee (Buy, bilateral).
	DetectCycles bool
	// Schedule selects the activation regime of every trial (nil:
	// sequential one-agent-per-step play, the classical process). Round
	// scenarios set a dynamics.Rounds value here; the record schema is
	// unchanged — round trials report committed moves as Steps.
	Schedule dynamics.Scheduler
	// Oracle selects the distance oracle of every trial (zero value: auto —
	// exact at the registry's grid sizes, landmark above the auto
	// threshold). Landmark trials are bit-identical to exact ones, so the
	// choice never changes records, only memory and wall-clock at large n.
	Oracle dynamics.OracleSpec
	// Backend selects the adjacency representation of every trial (zero
	// value: auto — dense at exact-oracle sizes, sparse CSR when the
	// oracle resolves to landmark mode). Both backends enumerate
	// neighbours in the same order, so records are bit-identical; the
	// choice only moves memory, O(n²/8) versus O(n+m).
	Backend dynamics.BackendSpec
}

// validate reports structural problems that would make the scenario
// unrunnable.
func (sc Scenario) validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("ensemble: scenario has no name")
	case sc.NewGame == nil:
		return fmt.Errorf("ensemble: scenario %q has no game constructor", sc.Name)
	case sc.NewInitial == nil:
		return fmt.Errorf("ensemble: scenario %q has no initial-network ensemble", sc.Name)
	case len(sc.Ns) == 0:
		return fmt.Errorf("ensemble: scenario %q has no default agent counts", sc.Name)
	case sc.Trials <= 0:
		return fmt.Errorf("ensemble: scenario %q has no default trial count", sc.Name)
	}
	return nil
}
