// Package spine is the execution spine under the ensemble and campaign
// packages: one ordered, cancellable, resumable executor for runs of many
// independently seeded items. A run's items are grouped into cells (an
// agent count, a sampler x variant pair) and emitted in canonical order,
// cell by cell and item by item. Workers execute shards of consecutive
// items out of order; the caller's goroutine folds and streams the
// records strictly in emit order, stopping at the first gap, so every
// sink holds a gap-free prefix of the canonical stream whatever cut the
// run short. Records depend only on the item, never on worker count,
// shard size or scheduling.
package spine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ncg/internal/jsonl"
)

// Sink consumes a run's records in emit order, from a single goroutine, so
// sinks need no locking. A sink that also has a Flush() error method is
// flushed after every emitted shard, so an interrupted run leaves a
// maximal resumable file.
type Sink[R any] interface {
	Write(rec R) error
	// Close flushes buffered output and releases resources.
	Close() error
}

// FuncSink adapts a callback into a Sink, for in-memory consumers.
type FuncSink[R any] func(rec R) error

func (f FuncSink[R]) Write(rec R) error { return f(rec) }

func (f FuncSink[R]) Close() error { return nil }

// Close closes every sink and returns err, or else the first Close error.
func Close[R any](sinks []Sink[R], err error) error {
	for _, s := range sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Shard is the item range [Lo, Hi) of one cell that a worker claims at
// once.
type Shard struct {
	Cell, Lo, Hi int
}

// Layout cuts each cell's items into shards of size items, in emit order.
// A size <= 0 picks the default per cell: items/(4·workers) clamped to
// [1, 256], a few shards per worker for load balance, but bounded because
// a cut (MaxHits) can only land between emitted shards, so a giant shard
// would overshoot an early cut by a full shard of wasted items.
func Layout(cells []int, size, workers int) []Shard {
	var shards []Shard
	for c, items := range cells {
		s := size
		if s <= 0 {
			s = min(max(items/(4*workers), 1), 256)
		}
		for lo := 0; lo < items; lo += s {
			shards = append(shards, Shard{Cell: c, Lo: lo, Hi: min(lo+s, items)})
		}
	}
	return shards
}

// Task defines one run for the executor: the cells, how to execute and
// identify an item, and how to fold the ordered stream.
type Task[K comparable, R any] struct {
	// Name prefixes the run's errors ("ensemble", "campaign").
	Name string
	// Cells holds the item count of every cell.
	Cells []int
	// Workers sizes the pool (0: GOMAXPROCS); ShardSize is the number of
	// consecutive items a worker claims (0: the Layout default). Neither
	// changes results.
	Workers, ShardSize int
	// Context, if non-nil, cancels the run between items: in-flight
	// shards stop at their next item boundary, everything already ordered
	// is flushed, and Run returns the context's error.
	Context context.Context
	// Done holds the records of an interrupted run. They must be exactly
	// the first Done.Len() items of this run's emit order; they are folded
	// and streamed to every sink again instead of being re-run (the
	// append-mode sink of jsonl.Resume drops them).
	Done *jsonl.Checkpoint[K, R]
	// Key identifies item i of cell: the key a recovered record must
	// carry, and the label of a panic error.
	Key func(cell, i int) K
	// NewWorker builds one worker's item function. Each worker calls it
	// once, so the function may own scratch space reused across items.
	NewWorker func() func(cell, i int) R
	// Fold receives every record in emit order before the sinks do;
	// returning true ends the stream after this record.
	Fold func(cell int, rec R) (cut bool)
	// Progress, if non-nil, runs after every emitted shard with the
	// number of shards emitted so far and the total.
	Progress func(sh Shard, done, shards int)
}

// Call runs item i of cell through fn, converting a panic into an error
// naming the item, so a bad configuration fails the run instead of
// crashing it.
func (t *Task[K, R]) Call(fn func(cell, i int) R, cell, i int) (rec R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %+v: %v", t.Name, t.Key(cell, i), r)
		}
	}()
	return fn(cell, i), nil
}

// output is a shard's fresh records in item order, closed ready once the
// worker is done with it. A shard cut short by an abort or by err holds a
// prefix of its items.
type output[R any] struct {
	recs  []R
	err   error
	ready chan struct{}
}

// Run executes the task over a worker pool and streams its records to
// the sinks in emit order; it does not close them. The first failing
// item ends the stream right before it and Run returns its error, as for
// a sink error; a cut or a complete run returns nil, and a cancelled one
// the context's error. Which records reach the sinks is therefore the
// same at any worker count and shard size, except where cancellation
// lands.
func Run[K comparable, R any](t Task[K, R], sinks ...Sink[R]) error {
	starts := make([]int, len(t.Cells)+1)
	for c, items := range t.Cells {
		starts[c+1] = starts[c] + items
	}
	done, err := t.recovered(starts)
	if err != nil {
		return err
	}
	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := Layout(t.Cells, t.ShardSize, workers)
	outs := make([]output[R], len(shards))
	for k := range outs {
		outs[k].ready = make(chan struct{})
	}

	// abort stops the workers at their next item boundary. Only the emit
	// loop and cancellation set it: a failed item merely ends its own
	// shard, because whether the failure matters depends on whether the
	// ordered stream reaches it before a cut.
	var abort atomic.Bool
	if t.Context != nil {
		stop := context.AfterFunc(t.Context, func() { abort.Store(true) })
		defer stop()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			item := t.NewWorker()
			for k := int(next.Add(1) - 1); k < len(shards); k = int(next.Add(1) - 1) {
				sh, out := shards[k], &outs[k]
				if !abort.Load() {
					// Items of the recovered prefix are not run again.
					lo := max(sh.Lo, len(done)-starts[sh.Cell])
					out.recs, out.err = t.runShard(item, sh, lo, &abort)
				}
				close(out.ready)
			}
		}()
	}
	err = t.emit(shards, starts, done, outs, sinks)
	abort.Store(true)
	wg.Wait()
	if err == nil && t.Context != nil {
		// A cancelled run is reported as such even though the partial
		// stream is valid, so callers tell "interrupted, resume later"
		// from a completed run.
		err = t.Context.Err()
	}
	return err
}

// runShard runs items [lo, Hi) of the shard, stopping early at a failing
// item or an abort.
func (t *Task[K, R]) runShard(item func(cell, i int) R, sh Shard, lo int, abort *atomic.Bool) ([]R, error) {
	recs := make([]R, 0, max(sh.Hi-lo, 0))
	for i := lo; i < sh.Hi && !abort.Load(); i++ {
		rec, err := t.Call(item, sh.Cell, i)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// recovered checks that the checkpoint's records are exactly the first
// Done.Len() items of this run's emit order and returns them. Anything
// else (another seed or grid, or a budget extension that moves items in
// front of recovered ones) could not be completed into the file an
// uninterrupted run writes.
func (t *Task[K, R]) recovered(starts []int) ([]R, error) {
	keys, recs := t.Done.Recovered()
	if total := starts[len(t.Cells)]; len(keys) > total {
		return nil, fmt.Errorf("%s: checkpoint holds %d records but this run has only %d items; resume with the original settings", t.Name, len(keys), total)
	}
	cell := 0
	for j, k := range keys {
		for j >= starts[cell+1] {
			cell++
		}
		if want := t.Key(cell, j-starts[cell]); k != want {
			return nil, fmt.Errorf("%s: checkpoint record %d is %+v, but item %d of this run is %+v; resume with the original settings", t.Name, j, k, j, want)
		}
	}
	return recs, nil
}

// emit folds and streams the shards' records strictly in emit order as
// they become ready, recovered records from done, and stops at the first
// gap (a shard cut short), error or cut.
func (t *Task[K, R]) emit(shards []Shard, starts []int, done []R, outs []output[R], sinks []Sink[R]) error {
	for k, sh := range shards {
		out := &outs[k]
		<-out.ready
		fresh := out.recs
		out.recs = nil
		var err error
		stop := false
		for pos := starts[sh.Cell] + sh.Lo; pos < starts[sh.Cell]+sh.Hi && !stop; pos++ {
			var rec R
			if pos < len(done) {
				rec = done[pos]
			} else if len(fresh) > 0 {
				rec, fresh = fresh[0], fresh[1:]
			} else {
				// A gap: the shard stopped early, at its failing item or
				// on an abort.
				err, stop = out.err, true
				break
			}
			if t.Fold(sh.Cell, rec) {
				stop = true
				if pos+1 < len(done) {
					err = fmt.Errorf("%s: the stream is cut at item %d, inside the %d-record checkpoint; resume with the original settings", t.Name, pos, len(done))
				}
			}
			for _, s := range sinks {
				if err == nil {
					err = s.Write(rec)
				}
			}
			stop = stop || err != nil
		}
		for _, s := range sinks {
			if f, ok := s.(interface{ Flush() error }); ok {
				if ferr := f.Flush(); err == nil {
					err = ferr
				}
			}
		}
		if t.Progress != nil {
			t.Progress(sh, k+1, len(shards))
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}
