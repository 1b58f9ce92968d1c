// Package jsonl holds the record files of the execution spine: the line
// sink every record type streams through (each type bringing its own
// append-encoder), and the checkpoint loader that recovers an interrupted
// run. A record file written by an interrupted run is a sequence of
// complete JSON lines followed by at most one torn tail (a partial line,
// or garbage after a crash). Scanning stops at the first incomplete or
// unparseable line, so resuming re-runs exactly the work the file does
// not fully record.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ScanLines reads r line by line, calling accept for each complete,
// non-blank line (without its newline). It returns the byte offset after
// the last good line: blank lines advance it, accept returning false — an
// unparseable line — or a final line without a trailing newline marks the
// start of the truncated tail, which is not scanned further.
func ScanLines(r io.Reader, accept func(line []byte) bool) (goodBytes int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a write was cut mid-line; drop it.
			return goodBytes, nil
		}
		if err != nil {
			return goodBytes, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			goodBytes += int64(len(line))
			continue
		}
		if !accept(trimmed) {
			// A corrupt line: treat it and everything after as the tail.
			return goodBytes, nil
		}
		goodBytes += int64(len(line))
	}
}

// ScanFile opens path and scans it with ScanLines.
func ScanFile(path string, accept func(line []byte) bool) (goodBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ScanLines(f, accept)
}

// Encoder appends one record's line, newline included, to buf.
type Encoder[R any] func(buf []byte, rec R) ([]byte, error)

// AppendJSON is the encoding/json Encoder: json.Marshal of rec and a
// newline, the bytes a json.Encoder writes.
func AppendJSON[R any](buf []byte, rec R) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	return append(append(buf, b...), '\n'), nil
}

// Sink streams records one line each through a buffered writer, encoding
// into a reused buffer. If the underlying writer is an io.Closer it is
// closed with the sink.
type Sink[R any] struct {
	w   *bufio.Writer
	c   io.Closer
	enc Encoder[R]
	buf []byte
	// skip counts the leading records to drop because the file already
	// holds them (see Resume).
	skip int
}

// NewSink streams records encoded by enc to w.
func NewSink[R any](w io.Writer, enc Encoder[R]) *Sink[R] {
	s := &Sink[R]{w: bufio.NewWriter(w), enc: enc}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Create creates (or truncates) a record file.
func Create[R any](path string, enc Encoder[R]) (*Sink[R], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewSink(f, enc), nil
}

// Write encodes rec as one line.
func (s *Sink[R]) Write(rec R) error {
	if s.skip > 0 {
		s.skip--
		return nil
	}
	b, err := s.enc(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = b
	_, err = s.w.Write(b)
	return err
}

// Flush pushes buffered records to the underlying writer.
func (s *Sink[R]) Flush() error { return s.w.Flush() }

// Close flushes and releases the underlying writer.
func (s *Sink[R]) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Checkpoint holds the records recovered from a partial record file, in
// file order, with their keys: the identity of the item each record
// stands for, which a resumed run checks against its own emit order.
type Checkpoint[K comparable, R any] struct {
	recs []R
	keys []K
	// goodBytes is the file offset after the last complete, accepted
	// line; anything beyond it is the truncated tail.
	goodBytes int64
}

// LoadCheckpoint parses a (possibly truncated) record file. Each complete
// line that decodes into R and that key accepts becomes a recovered
// record; a trailing partial line, or anything from the first rejected
// line on, is the ignored tail.
func LoadCheckpoint[K comparable, R any](path string, key func(R) (K, bool)) (*Checkpoint[K, R], error) {
	cp := &Checkpoint[K, R]{}
	good, err := ScanFile(path, func(line []byte) bool {
		var rec R
		if json.Unmarshal(line, &rec) != nil {
			return false
		}
		k, ok := key(rec)
		if ok {
			cp.recs = append(cp.recs, rec)
			cp.keys = append(cp.keys, k)
		}
		return ok
	})
	if err != nil {
		return nil, err
	}
	cp.goodBytes = good
	return cp, nil
}

// Resume prepares a partial record file for resumption: it loads the
// checkpoint, truncates the file back to its last complete line and
// returns an append-mode sink that drops the first Len() records written
// to it, the ones the file already holds. A run that streams the
// recovered records again before the missing ones, as the spine executor
// does, completes the file exactly as an uninterrupted run would have
// written it.
func Resume[K comparable, R any](path string, key func(R) (K, bool), enc Encoder[R]) (*Checkpoint[K, R], *Sink[R], error) {
	cp, err := LoadCheckpoint(path, key)
	if err != nil {
		return nil, nil, err
	}
	f, err := OpenResume(path, cp.goodBytes)
	if err != nil {
		return nil, nil, err
	}
	s := NewSink(f, enc)
	s.skip = cp.Len()
	return cp, s, nil
}

// Len returns the number of recovered records.
func (c *Checkpoint[K, R]) Len() int {
	if c == nil {
		return 0
	}
	return len(c.recs)
}

// Recovered returns the recovered records' keys and the records, in file
// order.
func (c *Checkpoint[K, R]) Recovered() ([]K, []R) {
	if c == nil {
		return nil, nil
	}
	return c.keys, c.recs
}

// String summarizes the checkpoint for logs.
func (c *Checkpoint[K, R]) String() string {
	return fmt.Sprintf("checkpoint(%d records)", c.Len())
}

// OpenResume prepares a partial record file for resumption: it truncates
// the file back to goodBytes (cutting the torn tail), fsyncs the cut so a
// crash cannot resurrect the discarded tail under fresh appends, and
// returns the file positioned for appending, so completing the run
// rewrites the file exactly as an uninterrupted one would have.
func OpenResume(path string, goodBytes int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*os.File, error) {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(goodBytes); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
		return fail(err)
	}
	return f, nil
}
