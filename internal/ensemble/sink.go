package ensemble

import (
	"io"
	"strconv"

	"ncg/internal/jsonl"
	"ncg/internal/spine"
)

// Record is the result of one trial, the unit streamed to sinks. Field
// order is the JSONL schema; Moves counts performed moves indexed by
// game.MoveKind (delete, swap, buy, multi).
type Record struct {
	Scenario  string `json:"scenario"`
	N         int    `json:"n"`
	Trial     int    `json:"trial"`
	Seed      int64  `json:"seed"`
	Steps     int    `json:"steps"`
	Converged bool   `json:"converged"`
	Cycled    bool   `json:"cycled"`
	Moves     [4]int `json:"moves"`
}

// Sink consumes the per-trial records of an ensemble run. Execute delivers
// records in deterministic (n, trial) order from a single goroutine, so
// sinks need no locking; it closes every sink it was handed, whether or
// not the run succeeded.
type Sink = spine.Sink[Record]

// FuncSink adapts a callback into a Sink, for in-memory consumers.
type FuncSink = spine.FuncSink[Record]

// JSONLSink streams records as one JSON object per line. Records are
// encoded into a reusable buffer by a hand-rolled encoder that produces
// byte-identical output to encoding/json for the Record schema, so a
// steady-state stream allocates nothing per record.
type JSONLSink = jsonl.Sink[Record]

// NewJSONLSink writes JSONL records to w; if w is an io.Closer it is
// closed with the sink.
func NewJSONLSink(w io.Writer) *JSONLSink { return jsonl.NewSink(w, appendRecord) }

// CreateJSONL creates (or truncates) a JSONL record file.
func CreateJSONL(path string) (*JSONLSink, error) { return jsonl.Create(path, appendRecord) }

// Checkpoint holds the trials recovered from a partial JSONL record file.
// Passed to Execute via Options.Done, those trials are folded into the
// summary from their recorded results instead of being re-run.
type Checkpoint = jsonl.Checkpoint[trialKey, Record]

// LoadCheckpoint parses a (possibly truncated) JSONL record file. Complete
// lines become recovered trials; an interrupted run's trailing partial
// line — or anything following the first unparseable line — is ignored, so
// resuming re-runs exactly the trials the file does not fully record.
func LoadCheckpoint(path string) (*Checkpoint, error) { return jsonl.LoadCheckpoint(path, recordKey) }

// ResumeJSONL prepares a partial JSONL record file for resumption: it
// loads the checkpoint, truncates the file back to its last complete line
// and returns an append-mode sink. Executing with the checkpoint in
// Options.Done and the sink then completes the file exactly as an
// uninterrupted run would have written it.
func ResumeJSONL(path string) (*Checkpoint, *JSONLSink, error) {
	return jsonl.Resume(path, recordKey, appendRecord)
}

// trialKey identifies one trial of a run: the key a checkpoint record must
// carry to stand for it.
type trialKey struct {
	Scenario string
	N, Trial int
	Seed     int64
}

// recordKey keys a parsed checkpoint line, rejecting lines that are not
// trial records.
func recordKey(rec Record) (trialKey, bool) {
	return trialKey{Scenario: rec.Scenario, N: rec.N, Trial: rec.Trial, Seed: rec.Seed}, rec.Scenario != ""
}

// appendRecord is the JSONL encoder of Record.
func appendRecord(buf []byte, rec Record) ([]byte, error) {
	if !jsonPlain(rec.Scenario) {
		// Names outside printable ASCII take the reflective encoder; the
		// registry never produces them, so this path is cold by design.
		return jsonl.AppendJSON(buf, rec)
	}
	return appendRecordJSON(buf, rec), nil
}

// jsonPlain reports whether every byte of v is printable ASCII, the
// precondition of the pooled encoder's string escaping.
func jsonPlain(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 || v[i] > 0x7e {
			return false
		}
	}
	return true
}

// appendJSONString appends a printable-ASCII string in encoding/json's
// format, including its HTML-safe escaping of <, > and &.
func appendJSONString(buf []byte, v string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '<':
			buf = append(buf, '\\', 'u', '0', '0', '3', 'c')
		case '>':
			buf = append(buf, '\\', 'u', '0', '0', '3', 'e')
		case '&':
			buf = append(buf, '\\', 'u', '0', '0', '2', '6')
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// appendRecordJSON appends rec as one JSON line, byte-identical to
// json.Marshal of the Record struct followed by a newline.
func appendRecordJSON(buf []byte, rec Record) []byte {
	buf = append(buf, `{"scenario":`...)
	buf = appendJSONString(buf, rec.Scenario)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(rec.N), 10)
	buf = append(buf, `,"trial":`...)
	buf = strconv.AppendInt(buf, int64(rec.Trial), 10)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, rec.Seed, 10)
	buf = append(buf, `,"steps":`...)
	buf = strconv.AppendInt(buf, int64(rec.Steps), 10)
	buf = append(buf, `,"converged":`...)
	buf = strconv.AppendBool(buf, rec.Converged)
	buf = append(buf, `,"cycled":`...)
	buf = strconv.AppendBool(buf, rec.Cycled)
	buf = append(buf, `,"moves":[`...)
	for i, m := range rec.Moves {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(m), 10)
	}
	return append(buf, ']', '}', '\n')
}

// CSVSink streams records as CSV with a fixed header, one row per record.
type CSVSink = jsonl.Sink[Record]

// NewCSVSink writes CSV records to w; if w is an io.Closer it is closed
// with the sink.
func NewCSVSink(w io.Writer) *CSVSink {
	header := false
	return jsonl.NewSink(w, func(buf []byte, rec Record) ([]byte, error) {
		if !header {
			header = true
			buf = append(buf, "scenario,n,trial,seed,steps,converged,cycled,deletes,swaps,buys,multis\n"...)
		}
		buf = append(buf, rec.Scenario...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rec.N), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rec.Trial), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rec.Seed, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(rec.Steps), 10)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, rec.Converged)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, rec.Cycled)
		for _, m := range rec.Moves {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(m), 10)
		}
		return append(buf, '\n'), nil
	})
}
