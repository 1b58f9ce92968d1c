package game

import (
	"fmt"
	"sort"
	"strings"

	"ncg/internal/graph"
)

// MoveKind classifies strategy changes for statistics and tie-breaking.
type MoveKind int

const (
	// KindDelete removes edges only.
	KindDelete MoveKind = iota
	// KindSwap replaces exactly one neighbour by one new neighbour.
	KindSwap
	// KindBuy adds edges only.
	KindBuy
	// KindMulti is any other combination (multi-swaps, general Buy Game
	// or bilateral strategy changes).
	KindMulti
)

func (k MoveKind) String() string {
	switch k {
	case KindDelete:
		return "delete"
	case KindSwap:
		return "swap"
	case KindBuy:
		return "buy"
	default:
		return "multi"
	}
}

// Move is a strategy change of one agent: it stops maintaining the edges to
// Drop and creates edges to Add (owned by the agent). In swap games Drop may
// contain neighbours whose edge the agent does not own (the Swap Game lets
// either endpoint swap an edge); in the bilateral game Drop/Add are relative
// to the agent's entire neighbourhood.
type Move struct {
	Agent int
	Drop  []int
	Add   []int
}

// Kind classifies the move.
func (m Move) Kind() MoveKind {
	switch {
	case len(m.Drop) == 1 && len(m.Add) == 1:
		return KindSwap
	case len(m.Drop) == 0 && len(m.Add) >= 1:
		return KindBuy
	case len(m.Add) == 0 && len(m.Drop) >= 1:
		return KindDelete
	default:
		return KindMulti
	}
}

func (m Move) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "agent %d", m.Agent)
	if len(m.Drop) > 0 {
		fmt.Fprintf(&sb, " drop %v", m.Drop)
	}
	if len(m.Add) > 0 {
		fmt.Fprintf(&sb, " add %v", m.Add)
	}
	return sb.String()
}

// Clone returns a deep copy of the move. Enumeration reuses backing slices
// pooled in the Scratch: moves returned by BestMoves or ImprovingMoves are
// valid only until the next enumeration on the same Scratch, so callers
// that retain a move across scans must Clone it.
func (m Move) Clone() Move {
	return Move{
		Agent: m.Agent,
		Drop:  append([]int(nil), m.Drop...),
		Add:   append([]int(nil), m.Add...),
	}
}

// CloneMoves deep-copies every move in ms in place and returns ms, for
// callers that retain an enumerated batch across later scans.
func CloneMoves(ms []Move) []Move {
	for i := range ms {
		ms[i] = ms[i].Clone()
	}
	return ms
}

// Equal reports whether two moves are identical up to the order of their
// Drop and Add lists.
func (m Move) Equal(o Move) bool {
	if m.Agent != o.Agent || len(m.Drop) != len(o.Drop) || len(m.Add) != len(o.Add) {
		return false
	}
	return sameIntSet(m.Drop, o.Drop) && sameIntSet(m.Add, o.Add)
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ApplyMove performs m on g without recording undo state; unlike Apply it
// allocates nothing. It panics on the same malformed moves as Apply.
func ApplyMove(g graph.Store, m Move) {
	for _, v := range m.Drop {
		g.RemoveEdge(m.Agent, v)
	}
	for _, v := range m.Add {
		g.AddEdge(m.Agent, v)
	}
}

// Applied records the reversible effect of a move so it can be undone, for
// callers that step into a successor state and back (state-graph
// searches, round commits). Candidate evaluation never applies moves; it
// searches the edited network read-only (see movedCost).
type Applied struct {
	g           graph.Store
	agent       int
	added       []int
	dropped     []int
	dropOwners  []int
	transferred bool
}

// Apply performs m on g and returns the undo record. It panics on malformed
// moves (dropping a missing edge, adding an existing one).
func Apply(g graph.Store, m Move) Applied {
	a := Applied{g: g, agent: m.Agent}
	for _, v := range m.Drop {
		a.dropOwners = append(a.dropOwners, g.Owner(m.Agent, v))
		a.dropped = append(a.dropped, v)
		g.RemoveEdge(m.Agent, v)
	}
	for _, v := range m.Add {
		g.AddEdge(m.Agent, v)
		a.added = append(a.added, v)
	}
	return a
}

// Undo reverts the move, restoring original edge ownership.
func (a Applied) Undo() {
	for _, v := range a.added {
		a.g.RemoveEdge(a.agent, v)
	}
	for i, v := range a.dropped {
		owner := a.dropOwners[i]
		other := a.agent
		if owner == a.agent {
			other = v
		}
		a.g.AddEdge(owner, other)
	}
}
