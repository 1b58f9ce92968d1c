package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the benchmark's own code around a call
// into one layer of the program. Spans of one run share a tracer; parent
// links the span that caused this one (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends; record is safe for
// concurrent use, so parallel replays share one tracer.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span whose id children may already reference.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	layer  string
	name   string
	start  int64
}

// begin starts a span under parent (0 for a root span).
func (t *tracer) begin(parent int64, layer, name string) openSpan {
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, layer: layer, name: name, start: t.now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	end := o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{ID: o.id, Parent: o.parent, Layer: o.layer, Name: o.name, Start: o.start, End: end})
	o.t.mu.Unlock()
	return time.Duration(end - o.start)
}

// add records a finished span whose bounds were taken with now.
func (t *tracer) add(parent int64, layer, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.nextID.Add(1), Parent: parent, Layer: layer, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals sums the duration and counts the spans of each name.
func spanTotals(spans []span) (dur map[string]time.Duration, count map[string]int) {
	dur = map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range spans {
		dur[s.Name] += s.dur()
		count[s.Name]++
	}
	return dur, count
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval covered by the union of its children's
// intervals, summed by layer. Children of one parent may overlap (a
// parallel replay); the union counts the covered time once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}
