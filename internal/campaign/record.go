package campaign

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"ncg/internal/cycles"
	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/jsonl"
	"ncg/internal/spine"
)

// Move is the JSONL form of one cycle move.
type Move struct {
	Agent int   `json:"agent"`
	Drop  []int `json:"drop,omitempty"`
	Add   []int `json:"add,omitempty"`
}

// Record is the result of searching one instance, the unit streamed to
// sinks in deterministic (sampler, variant, instance) order. Misses are
// compact progress records; hits additionally carry the canonical
// ownership-aware start-network encoding (graph.AppendOwnedRows, hex) and
// the found cycle as its first state plus move trace.
type Record struct {
	Campaign string `json:"campaign"`
	Sampler  string `json:"sampler"`
	Variant  string `json:"variant"`
	Instance int    `json:"instance"`
	// Seed is the instance's derived stream (attempt 0); resample redraws
	// derive fresh streams from the same triple.
	Seed int64 `json:"seed"`
	// N is the searched instance's agent count (0 when no sample
	// materialized).
	N int `json:"n"`
	// Searched reports whether a start network was actually searched; a
	// false value means every redraw of a degenerate sample failed, and
	// the instance consumed none of the search budget's meaning.
	Searched bool `json:"searched"`
	// Resamples counts degenerate draws redrawn from fresh derived seeds.
	Resamples int `json:"resamples"`
	// States is the number of distinct states the cycle search interned.
	States int `json:"states"`
	// Hit reports a found best-response cycle (or accepted candidate).
	Hit bool `json:"hit"`
	// Start is the hex-encoded canonical start network of a hit.
	Start string `json:"start,omitempty"`
	// CycleStart is the hex-encoded first state of the found cycle
	// (equal to Start for candidate-check hits, whose cycle starts at the
	// candidate itself).
	CycleStart string `json:"cycleStart,omitempty"`
	// Moves is the cycle's move trace: applying them in order to
	// CycleStart returns to CycleStart.
	Moves []Move `json:"moves,omitempty"`
}

// EncodeGraph returns the canonical hex form of g's ownership-aware state
// encoding (graph.AppendOwnedRows): 16 hex digits per row word. Together
// with the record's agent count it identifies the network exactly.
func EncodeGraph(g *graph.Graph) string {
	words := g.AppendOwnedRows(make([]uint64, 0, graph.EncodedWords(g.N())))
	buf := make([]byte, 0, 8*len(words))
	for _, w := range words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return hex.EncodeToString(buf)
}

// DecodeGraph reverses EncodeGraph for an n-agent network.
func DecodeGraph(n int, s string) (*graph.Graph, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("campaign: bad state encoding: %v", err)
	}
	if len(raw) != 8*graph.EncodedWords(n) {
		return nil, fmt.Errorf("campaign: state encoding is %d bytes, want %d for n=%d",
			len(raw), 8*graph.EncodedWords(n), n)
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	g := graph.New(n)
	g.LoadOwnedRows(words)
	return g, nil
}

// encodeMoves converts a move trace into its JSONL form.
func encodeMoves(ms []game.Move) []Move {
	out := make([]Move, len(ms))
	for i, m := range ms {
		out[i] = Move{
			Agent: m.Agent,
			Drop:  append([]int(nil), m.Drop...),
			Add:   append([]int(nil), m.Add...),
		}
	}
	return out
}

// GameMoves converts the record's trace back into game moves.
func (r Record) GameMoves() []game.Move {
	out := make([]game.Move, len(r.Moves))
	for i, m := range r.Moves {
		out[i] = game.Move{Agent: m.Agent, Drop: m.Drop, Add: m.Add}
	}
	return out
}

// DecodeStart returns the hit's start network.
func (r Record) DecodeStart() (*graph.Graph, error) {
	if !r.Hit {
		return nil, fmt.Errorf("campaign: record %s/%s #%d is not a hit", r.Sampler, r.Variant, r.Instance)
	}
	return DecodeGraph(r.N, r.Start)
}

// DecodeCycle reconstructs the hit's best-response cycle by replaying the
// move trace from the cycle's first state. It verifies that the trajectory
// closes — exactly for ownership-aware games, up to ownership for
// ownership-blind ones, whose stored states carry the interned store's
// canonical orientation — so a decoded cycle is structurally sound even
// from an untrusted record file.
func (r Record) DecodeCycle() (*cycles.FoundCycle, error) {
	if !r.Hit {
		return nil, fmt.Errorf("campaign: record %s/%s #%d is not a hit", r.Sampler, r.Variant, r.Instance)
	}
	g, err := DecodeGraph(r.N, r.CycleStart)
	if err != nil {
		return nil, err
	}
	fc := &cycles.FoundCycle{Moves: r.GameMoves()}
	cur := g.Clone()
	for _, m := range fc.Moves {
		fc.States = append(fc.States, cur.Clone())
		game.Apply(cur, m)
	}
	if !cur.Equal(g) && !cur.EqualUnowned(g) {
		return nil, fmt.Errorf("campaign: record %s/%s #%d: cycle trace does not close", r.Sampler, r.Variant, r.Instance)
	}
	return fc, nil
}

// Sink consumes the per-instance records of a campaign run. Run delivers
// records in deterministic (sampler, variant, instance) order from a
// single goroutine, so sinks need no locking; it closes every sink it was
// handed, whether or not the run succeeded.
type Sink = spine.Sink[Record]

// FuncSink adapts a callback into a Sink, for in-memory consumers.
type FuncSink = spine.FuncSink[Record]

// JSONLSink streams records as one JSON object per line (encoding/json
// bytes), the campaign's checkpointable on-disk form.
type JSONLSink = jsonl.Sink[Record]

// NewJSONLSink writes JSONL records to w; if w is an io.Closer it is
// closed with the sink.
func NewJSONLSink(w io.Writer) *JSONLSink { return jsonl.NewSink(w, jsonl.AppendJSON[Record]) }

// CreateJSONL creates (or truncates) a JSONL record file.
func CreateJSONL(path string) (*JSONLSink, error) {
	return jsonl.Create(path, jsonl.AppendJSON[Record])
}

// Checkpoint holds the instances recovered from a partial JSONL record
// file. Passed to Run via Options.Done, those instances are folded into
// the summary (and counted against Options.MaxHits) from their recorded
// results instead of being re-searched.
type Checkpoint = jsonl.Checkpoint[instanceKey, Record]

// LoadCheckpoint parses a (possibly truncated) campaign JSONL record file:
// complete lines become recovered instances, everything from the first
// torn or unparseable line on is ignored, so resuming re-runs exactly the
// instances the file does not fully record.
func LoadCheckpoint(path string) (*Checkpoint, error) { return jsonl.LoadCheckpoint(path, recordKey) }

// ResumeJSONL prepares a partial campaign record file for resumption: it
// loads the checkpoint, truncates the torn tail and returns an append-mode
// sink. Running with the checkpoint in Options.Done and the sink then
// completes the file exactly as an uninterrupted run would have written
// it.
func ResumeJSONL(path string) (*Checkpoint, *JSONLSink, error) {
	return jsonl.Resume(path, recordKey, jsonl.AppendJSON[Record])
}

// recordKey keys a parsed checkpoint line, rejecting lines that are not
// campaign records.
func recordKey(rec Record) (instanceKey, bool) {
	return instanceKey{rec.Campaign, rec.Sampler, rec.Variant, rec.Instance, rec.Seed}, rec.Campaign != ""
}
