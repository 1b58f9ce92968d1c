package spine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ncg/internal/jsonl"
)

// rec is the synthetic task's record: the item and its emit position.
type rec struct{ Cell, I, Pos int }

type key struct{ Cell, I int }

func recKey(r rec) (key, bool) { return key{r.Cell, r.I}, true }

// synth is a synthetic task over cells of the given sizes (an empty cell
// included by the callers): item p of the emit order records its
// position, sleeps delay(p), panics if p == fail, and cuts the stream if
// p == cut. ran counts executed items.
type synth struct {
	cells     []int
	fail, cut int
	delay     func(pos int) time.Duration
	onItem    func(pos int)
	ran       atomic.Int64
}

func (s *synth) pos(cell, i int) int {
	p := i
	for c := 0; c < cell; c++ {
		p += s.cells[c]
	}
	return p
}

func (s *synth) total() int { return s.pos(len(s.cells), 0) }

func (s *synth) task(workers, shard int) Task[key, rec] {
	return Task[key, rec]{
		Name:      "synth",
		Cells:     s.cells,
		Workers:   workers,
		ShardSize: shard,
		Key:       func(cell, i int) key { return key{cell, i} },
		NewWorker: func() func(cell, i int) rec {
			return func(cell, i int) rec {
				s.ran.Add(1)
				p := s.pos(cell, i)
				if s.onItem != nil {
					s.onItem(p)
				}
				if s.delay != nil {
					time.Sleep(s.delay(p))
				}
				if p == s.fail {
					panic(fmt.Sprintf("item %d fails", p))
				}
				return rec{cell, i, p}
			}
		},
		Fold: func(cell int, r rec) bool { return r.Pos == s.cut },
	}
}

// canonical is the full emit order of the cells.
func canonical(cells []int) []rec {
	var out []rec
	for c, n := range cells {
		for i := 0; i < n; i++ {
			out = append(out, rec{c, i, len(out)})
		}
	}
	return out
}

// collect returns a sink appending every record it receives to *out.
func collect(out *[]rec) Sink[rec] {
	return FuncSink[rec](func(r rec) error {
		*out = append(*out, r)
		return nil
	})
}

// checkPrefix asserts got is the first n records of the canonical stream.
func checkPrefix(t *testing.T, tag string, cells []int, got []rec, n int) {
	t.Helper()
	want := canonical(cells)[:n]
	if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: emitted %v, want the canonical prefix %v", tag, got, want)
	}
}

var testCells = []int{5, 0, 7, 3}

// shapes spans the worker counts and shard sizes every property must hold
// at.
func shapes(f func(tag string, workers, shard int)) {
	for _, workers := range []int{1, 4, 8} {
		for _, shard := range []int{1, 3} {
			f(fmt.Sprintf("workers=%d shard=%d", workers, shard), workers, shard)
		}
	}
}

// jitter makes items finish out of order.
func jitter(pos int) time.Duration { return time.Duration(pos*7%5) * 100 * time.Microsecond }

func TestRunEmitsCanonicalOrder(t *testing.T) {
	shapes(func(tag string, workers, shard int) {
		s := &synth{cells: testCells, fail: -1, cut: -1, delay: jitter}
		var got []rec
		var progress []int
		task := s.task(workers, shard)
		task.Progress = func(sh Shard, done, shards int) {
			progress = append(progress, done)
			if shards != len(Layout(testCells, shard, workers)) {
				t.Errorf("%s: progress reports %d shards", tag, shards)
			}
		}
		if err := Run(task, collect(&got)); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkPrefix(t, tag, testCells, got, s.total())
		if n := len(Layout(testCells, shard, workers)); len(progress) != n || progress[n-1] != n {
			t.Fatalf("%s: progress %v over %d shards", tag, progress, n)
		}
	})
}

func TestLayoutDefaultShardSize(t *testing.T) {
	for _, tc := range []struct {
		items, workers, size int
	}{{10, 4, 1}, {100, 2, 12}, {1 << 20, 1, 256}, {0, 1, 0}} {
		shards := Layout([]int{tc.items}, 0, tc.workers)
		if tc.items == 0 {
			if len(shards) != 0 {
				t.Fatalf("empty cell cut into %v", shards)
			}
			continue
		}
		if got := shards[0].Hi - shards[0].Lo; got != tc.size {
			t.Fatalf("%d items, %d workers: shard size %d, want %d", tc.items, tc.workers, got, tc.size)
		}
	}
}

// TestRunCancelLeavesPrefix cancels the context mid-run: Run returns the
// context's error and every sink holds a canonical prefix.
func TestRunCancelLeavesPrefix(t *testing.T) {
	cells := []int{40, 0, 160}
	shapes(func(tag string, workers, shard int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := &synth{cells: cells, fail: -1, cut: -1, delay: func(int) time.Duration { return 200 * time.Microsecond }}
		s.onItem = func(pos int) {
			if pos == 6 {
				cancel()
			}
		}
		var got []rec
		task := s.task(workers, shard)
		task.Context = ctx
		if err := Run(task, collect(&got)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Run returned %v, want the context's error", tag, err)
		}
		checkPrefix(t, tag, cells, got, len(got))
		if s.ran.Load() == int64(s.total()) {
			t.Fatalf("%s: a cancelled run executed every item", tag)
		}
	})
}

// TestRunSinkErrorLeavesPrefix: a failing sink ends the stream right
// before the record it failed on, at every worker count.
func TestRunSinkErrorLeavesPrefix(t *testing.T) {
	errFull := errors.New("sink full")
	shapes(func(tag string, workers, shard int) {
		s := &synth{cells: testCells, fail: -1, cut: -1, delay: jitter}
		var got []rec
		failing := FuncSink[rec](func(r rec) error {
			if r.Pos == 8 {
				return errFull
			}
			got = append(got, r)
			return nil
		})
		var after []rec
		if err := Run(s.task(workers, shard), failing, collect(&after)); !errors.Is(err, errFull) {
			t.Fatalf("%s: Run returned %v, want the sink error", tag, err)
		}
		checkPrefix(t, tag, testCells, got, 8)
		checkPrefix(t, tag+" (later sink)", testCells, after, 8)
	})
}

// TestRunPanicLeavesPrefix: a panicking item becomes an error naming the
// item, and the stream ends right before it.
func TestRunPanicLeavesPrefix(t *testing.T) {
	shapes(func(tag string, workers, shard int) {
		s := &synth{cells: testCells, fail: 9, cut: -1, delay: jitter}
		var got []rec
		err := Run(s.task(workers, shard), collect(&got))
		if err == nil || !strings.Contains(err.Error(), "synth: {Cell:2 I:4}: item 9 fails") {
			t.Fatalf("%s: Run returned %v, want the item's panic", tag, err)
		}
		checkPrefix(t, tag, testCells, got, 9)
	})
}

// TestRunCutLeavesPrefix: a cut ends the stream right after the cutting
// record, and a failing item past the cut does not matter, even when it
// fails while the items before the cut are still running.
func TestRunCutLeavesPrefix(t *testing.T) {
	slowToCut := func(pos int) time.Duration {
		if pos <= 6 {
			return 2 * time.Millisecond
		}
		return 0
	}
	shapes(func(tag string, workers, shard int) {
		s := &synth{cells: testCells, fail: 11, cut: 6, delay: slowToCut}
		var got []rec
		if err := Run(s.task(workers, shard), collect(&got)); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkPrefix(t, tag, testCells, got, 7)
	})
}

// writeCheckpoint writes the first n canonical records as a record file.
func writeCheckpoint(t *testing.T, cells []int, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := jsonl.Create(path, jsonl.AppendJSON[rec])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range canonical(cells)[:n] {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunResumesPrefix: a checkpoint holding the first records is folded
// and streamed to every sink without re-running its items, the resume
// sink skips it, and the file ends up complete.
func TestRunResumesPrefix(t *testing.T) {
	full := writeCheckpoint(t, testCells, len(canonical(testCells)))
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	shapes(func(tag string, workers, shard int) {
		for _, n := range []int{0, 4, 5, 9, 15} {
			path := writeCheckpoint(t, testCells, n)
			cp, sink, err := jsonl.Resume(path, recKey, jsonl.AppendJSON[rec])
			if err != nil {
				t.Fatal(err)
			}
			s := &synth{cells: testCells, fail: -1, cut: -1}
			var got []rec
			folded := 0
			task := s.task(workers, shard)
			task.Done = cp
			task.Fold = func(int, rec) bool { folded++; return false }
			sinks := []Sink[rec]{sink, collect(&got)}
			if err := Close(sinks, Run(task, sinks...)); err != nil {
				t.Fatalf("%s n=%d: %v", tag, n, err)
			}
			checkPrefix(t, tag, testCells, got, s.total())
			if folded != s.total() || s.ran.Load() != int64(s.total()-n) {
				t.Fatalf("%s n=%d: folded %d, ran %d items", tag, n, folded, s.ran.Load())
			}
			if data, err := os.ReadFile(path); err != nil || string(data) != string(want) {
				t.Fatalf("%s n=%d: resumed file differs from the full stream (%v)", tag, n, err)
			}
		}
	})
}

// TestRunRejectsNonPrefixCheckpoint: a checkpoint that is not exactly the
// first records of the emit order, or that a cut ends inside, is refused.
func TestRunRejectsNonPrefixCheckpoint(t *testing.T) {
	path := writeCheckpoint(t, testCells, 9)
	cp, err := jsonl.LoadCheckpoint(path, recKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cells []int
		cut   int
	}{
		{"larger first cell", []int{6, 0, 7, 3}, -1},
		{"smaller grid", []int{5, 0, 3}, -1},
		{"cut inside", testCells, 4},
	} {
		s := &synth{cells: tc.cells, fail: -1, cut: tc.cut}
		task := s.task(2, 1)
		task.Done = cp
		var got []rec
		if err := Run(task, collect(&got)); err == nil {
			t.Fatalf("%s: accepted a checkpoint that is not a prefix of the run", tc.name)
		}
	}
	s := &synth{cells: []int{5, 0, 9, 3}, fail: -1, cut: -1}
	task := s.task(2, 1)
	task.Done = cp
	if err := Run(task); err != nil {
		t.Fatalf("a checkpoint still a prefix of the extended grid must resume: %v", err)
	}
}

// FuzzRunPrefix draws worker count, shard size, cell split, per-item
// delays and fail/cut positions from the fuzz input. Whatever the
// schedule, the emitted stream is exactly the canonical prefix the first
// of the cut and the failure determines.
func FuzzRunPrefix(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(3), uint16(9), uint16(6), []byte{3, 0, 1, 2, 0, 3, 1, 0, 2, 2, 1, 0})
	f.Add(uint8(1), uint8(0), uint8(0), uint16(100), uint16(100), []byte{1, 2, 3})
	f.Add(uint8(8), uint8(3), uint8(5), uint16(2), uint16(7), []byte{0, 0, 3, 3, 0, 0, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, workers, shard, split uint8, fail, cut uint16, delays []byte) {
		if len(delays) > 48 {
			delays = delays[:48]
		}
		total := len(delays)
		a := int(split) % (total + 1)
		cells := []int{a, 0, total - a}
		s := &synth{
			cells: cells,
			fail:  int(fail) % (total + 1),
			cut:   int(cut) % (total + 1),
			delay: func(pos int) time.Duration { return time.Duration(delays[pos]%4) * 50 * time.Microsecond },
		}
		var got []rec
		err := Run(s.task(1+int(workers)%8, int(shard)%5), collect(&got))
		switch {
		case s.cut < s.fail && s.cut < total:
			if err != nil {
				t.Fatalf("cut at %d: %v", s.cut, err)
			}
			checkPrefix(t, "cut", cells, got, s.cut+1)
		case s.fail < total:
			if err == nil {
				t.Fatalf("item %d failed silently", s.fail)
			}
			checkPrefix(t, "fail", cells, got, s.fail)
		default:
			if err != nil {
				t.Fatal(err)
			}
			checkPrefix(t, "full", cells, got, total)
		}
	})
}
