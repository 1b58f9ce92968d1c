package ensemble

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
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

// TestResumeKillAnywhereEquivalence is the ensemble spine's
// crash-equivalence property: kill the run at ANY byte offset — every
// record boundary and mid-record — and resuming from the surviving prefix
// completes the file byte-for-byte identically to an uninterrupted run,
// with an identical summary, re-running exactly the trials the prefix
// does not fully record while every other sink sees the complete stream.
func TestResumeKillAnywhereEquivalence(t *testing.T) {
	sc := testScenario()
	opt := Options{Ns: []int{8, 12}, Trials: 6, Seed: 5, Workers: 2}
	full, fullSum := runJSONL(t, sc, opt)
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
		counted, runs := countTrials(sc)
		companion, complete := streamOrder(t, opt.Ns, opt.Trials)
		sum, err := Execute(counted, Options{Ns: opt.Ns, Trials: opt.Trials, Seed: opt.Seed, Workers: 3, ShardSize: 2, Done: cp}, sink, companion)
		if err != nil {
			t.Fatalf("cut=%d: resume run: %v", cut, err)
		}
		complete()
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
		// Trials the prefix fully records are folded from the checkpoint,
		// never re-run: exactly the missing ones execute, while every sink
		// but the resumed file sees the complete stream.
		if want := int64(len(opt.Ns)*opt.Trials - cp.Len()); runs.Load() != want {
			t.Fatalf("cut=%d: executed %d trials, want %d (checkpoint held %d)", cut, runs.Load(), want, cp.Len())
		}
	}
}
