package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"ncg/internal/gen"
	"ncg/internal/graph"
)

// killPoints enumerates every byte offset a crash is interesting at: each
// record boundary (the run died exactly between two flushes) and two cuts
// inside every record (the run died mid-write, leaving a torn tail).
func killPoints(full string) []int {
	cuts := []int{0}
	line := 0
	for i := 0; i < len(full); i++ {
		if full[i] != '\n' {
			continue
		}
		if mid := line + (i-line)/2; mid > line {
			cuts = append(cuts, mid, i)
		}
		cuts = append(cuts, i+1)
		line = i + 1
	}
	return cuts
}

// countSamples wraps every sampler of c to count Sample calls: a searched
// instance draws its resamples plus one, an unsearched one its resamples.
func countSamples(c Campaign) (Campaign, *atomic.Int64) {
	var calls atomic.Int64
	c.Samplers = append([]Sampler(nil), c.Samplers...)
	for i := range c.Samplers {
		sample := c.Samplers[i].Sample
		c.Samplers[i].Sample = func(n, inst int, r *gen.Rand) *graph.Graph {
			calls.Add(1)
			return sample(n, inst, r)
		}
	}
	return c, &calls
}

// TestResumeKillAnywhereEquivalence is the hunt spine's crash-equivalence
// property: kill the run at ANY byte offset — every record boundary and
// mid-record — and resuming from the surviving prefix completes the file
// byte-for-byte identically to an uninterrupted run, with an identical
// summary, re-running exactly the instances the prefix does not fully
// record.
func TestResumeKillAnywhereEquivalence(t *testing.T) {
	c := testCampaign()
	var recs []Record
	full, fullSum := runJSONL(t, c, Options{Workers: 2}, FuncSink(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}))
	dir := t.TempDir()
	for _, cut := range killPoints(full) {
		path := filepath.Join(dir, "run.jsonl")
		if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, sink, err := ResumeJSONL(path)
		if err != nil {
			t.Fatalf("cut=%d: ResumeJSONL: %v", cut, err)
		}
		counted, calls := countSamples(c)
		streamed := 0
		sum, err := Run(counted, Options{Workers: 3, ShardSize: 2, Done: cp}, sink,
			FuncSink(func(Record) error { streamed++; return nil }))
		if err != nil {
			t.Fatalf("cut=%d: resume run: %v", cut, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != full {
			t.Fatalf("cut=%d: resumed file differs from uninterrupted run (%d vs %d bytes)", cut, len(got), len(full))
		}
		if !reflect.DeepEqual(sum, fullSum) {
			t.Fatalf("cut=%d: resumed summary differs: %+v vs %+v", cut, sum, fullSum)
		}
		// The complete stream reaches in-memory sinks, but only the missing
		// instances were re-searched; the counts pin no replay and no drop.
		if want := c.Instances * len(c.Samplers) * len(c.Variants); streamed != want {
			t.Fatalf("cut=%d: %d records streamed, want %d", cut, streamed, want)
		}
		var want int64
		for _, rec := range recs[cp.Len():] {
			want += int64(rec.Resamples)
			if rec.Searched {
				want++
			}
		}
		if calls.Load() != want {
			t.Fatalf("cut=%d: %d samples drawn, want %d for the %d missing instances", cut, calls.Load(), want, len(recs)-cp.Len())
		}
		if cp.Len() > 0 && cut == 0 {
			t.Fatalf("empty prefix recovered %d instances", cp.Len())
		}
	}
}
