package ensemble

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ncg/internal/dynamics"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// testScenario is a small, fast ASG workload exercising both the budget
// generator and the random policy (the policy that consumes the most RNG).
func testScenario() Scenario {
	sc, ok := Lookup("fig7-asg-sum-k2-random")
	if !ok {
		panic("test scenario not registered")
	}
	return sc
}

// countTrials wraps the scenario's initial-network ensemble, which every
// executed trial draws from exactly once, to count the trials a run
// actually executes.
func countTrials(sc Scenario) (Scenario, *atomic.Int64) {
	var runs atomic.Int64
	draw := sc.NewInitial
	sc.NewInitial = func(n int, r *gen.Rand) *graph.Graph {
		runs.Add(1)
		return draw(n, r)
	}
	return sc, &runs
}

// streamOrder returns a sink checking that it receives the complete
// (n, trial) stream of the grid in order; call the returned func after
// the run to check completeness.
func streamOrder(t *testing.T, ns []int, trials int) (Sink, func()) {
	seen := 0
	sink := FuncSink(func(rec Record) error {
		if rec.N != ns[seen/trials] || rec.Trial != seen%trials {
			t.Errorf("record %d is n=%d trial=%d, out of stream order", seen, rec.N, rec.Trial)
		}
		seen++
		return nil
	})
	return sink, func() {
		t.Helper()
		if seen != len(ns)*trials {
			t.Errorf("companion sink saw %d records, want the full %d", seen, len(ns)*trials)
		}
	}
}

func runJSONL(t *testing.T, sc Scenario, opt Options) (string, Summary) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := Execute(sc, opt, NewJSONLSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), sum
}

// TestExecuteBitIdenticalAcrossWorkersAndShards is the spine's core
// guarantee: the streamed records and the summary are byte-for-byte the
// same for any worker count and any shard size.
func TestExecuteBitIdenticalAcrossWorkersAndShards(t *testing.T) {
	sc := testScenario()
	base := Options{Ns: []int{8, 12}, Trials: 10, Seed: 3}
	ref, refSum := runJSONL(t, sc, Options{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 1, ShardSize: base.Trials})
	variants := []Options{
		{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 8, ShardSize: 1},
		{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 3, ShardSize: 4},
		{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 16, ShardSize: 7},
	}
	for _, opt := range variants {
		got, gotSum := runJSONL(t, sc, opt)
		if got != ref {
			t.Fatalf("workers=%d shard=%d changed the record stream:\n%s\nvs reference:\n%s", opt.Workers, opt.ShardSize, got, ref)
		}
		if !reflect.DeepEqual(gotSum, refSum) {
			t.Fatalf("workers=%d shard=%d changed the summary: %+v vs %+v", opt.Workers, opt.ShardSize, gotSum, refSum)
		}
	}
	if strings.Count(ref, "\n") != len(base.Ns)*base.Trials {
		t.Fatalf("expected %d records, got:\n%s", len(base.Ns)*base.Trials, ref)
	}
}

// TestExecuteRoundScenario runs a registered round scenario end to end:
// the record stream is bit-identical across worker counts and shard sizes
// (round trials consume probe workers too, so this also covers the
// parallel-scan determinism of the Rounds schedule), and every trial
// actually played rounds (cycling or step-bound trials report Converged
// false without a cycle flag only when the bound cut them).
func TestExecuteRoundScenario(t *testing.T) {
	sc, ok := Lookup("rounds-sg-sum-budget-k3")
	if !ok {
		t.Fatal("round scenario not registered")
	}
	base := Options{Ns: []int{8, 12}, Trials: 8, Seed: 3}
	ref, refSum := runJSONL(t, sc, Options{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 1, ShardSize: base.Trials})
	for _, opt := range []Options{
		{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 8, ShardSize: 1},
		{Ns: base.Ns, Trials: base.Trials, Seed: base.Seed, Workers: 3, ShardSize: 4, ProbeWorkers: 4},
	} {
		got, gotSum := runJSONL(t, sc, opt)
		if got != ref {
			t.Fatalf("workers=%d probe=%d changed the round record stream", opt.Workers, opt.ProbeWorkers)
		}
		if !reflect.DeepEqual(gotSum, refSum) {
			t.Fatalf("workers=%d probe=%d changed the summary", opt.Workers, opt.ProbeWorkers)
		}
	}
	var recs []Record
	if _, err := Execute(sc, Options{Ns: []int{10}, Trials: 6, Seed: 2},
		FuncSink(func(rec Record) error { recs = append(recs, rec); return nil })); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Steps == 0 && !rec.Converged {
			t.Fatalf("round trial made no progress: %+v", rec)
		}
	}
}

// TestResumeFromTruncatedJSONL kills a run mid-file (by truncating its
// JSONL output inside a record) and checks that resuming completes the
// file byte-for-byte identically to an uninterrupted run, with the same
// summary, re-running only the missing trials.
func TestResumeFromTruncatedJSONL(t *testing.T) {
	sc := testScenario()
	opt := Options{Ns: []int{8, 12}, Trials: 8, Seed: 5, Workers: 2}
	full, fullSum := runJSONL(t, sc, opt)

	// Cut mid-record, leaving some complete lines and a torn tail.
	cut := len(full)/2 + 3
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}

	cp, sink, err := ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() == 0 || cp.Len() >= len(opt.Ns)*opt.Trials {
		t.Fatalf("checkpoint recovered %d trials from a half file", cp.Len())
	}
	counted, runs := countTrials(sc)
	companion, complete := streamOrder(t, opt.Ns, opt.Trials)
	sum, err := Execute(counted, Options{Ns: opt.Ns, Trials: opt.Trials, Seed: opt.Seed, Workers: 3, ShardSize: 2, Done: cp}, sink, companion)
	if err != nil {
		t.Fatal(err)
	}
	complete()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != full {
		t.Fatalf("resumed file differs from uninterrupted run:\n%q\nvs\n%q", got, full)
	}
	if !reflect.DeepEqual(sum, fullSum) {
		t.Fatalf("resumed summary differs: %+v vs %+v", sum, fullSum)
	}
	if want := int64(len(opt.Ns)*opt.Trials - cp.Len()); runs.Load() != want {
		t.Fatalf("resume executed %d trials, want %d", runs.Load(), want)
	}
}

// TestResumeRejectsForeignCheckpoint checks that a checkpoint from a
// different seed cannot silently corrupt a run.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	sc := testScenario()
	full, _ := runJSONL(t, sc, Options{Ns: []int{8}, Trials: 4, Seed: 5})
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(sc, Options{Ns: []int{8}, Trials: 4, Seed: 6, Done: cp}); err == nil {
		t.Fatal("expected a seed-mismatch error")
	}
}

// TestExecuteSummaryMatchesRecords cross-checks the aggregates against the
// streamed records.
func TestExecuteSummaryMatchesRecords(t *testing.T) {
	sc := testScenario()
	var recs []Record
	sum, err := Execute(sc, Options{Ns: []int{10}, Trials: 12, Seed: 2},
		FuncSink(func(rec Record) error { recs = append(recs, rec); return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("got %d records", len(recs))
	}
	var agg Aggregate
	agg = Aggregate{N: 10, MinSteps: int(^uint(0) >> 1)}
	for i, rec := range recs {
		if rec.N != 10 || rec.Trial != i || rec.Scenario != sc.Name {
			t.Fatalf("record %d malformed: %+v", i, rec)
		}
		agg.add(rec)
	}
	if !reflect.DeepEqual(sum.Aggregates[0], agg) {
		t.Fatalf("summary %+v does not match records %+v", sum.Aggregates[0], agg)
	}
}

// TestExecuteInfeasibleGridErrors checks that an infeasible agent count
// (budget ensemble with n <= 2k) is rejected by the scenario's CheckN
// before any trial runs or record is written, and that scenarios without
// CheckN still convert generator panics into errors instead of crashing.
func TestExecuteInfeasibleGridErrors(t *testing.T) {
	sc := testScenario() // budget k=2 needs n > 4
	var buf bytes.Buffer
	if _, err := Execute(sc, Options{Ns: []int{8, 4}, Trials: 2, Seed: 1}, NewJSONLSink(&buf)); err == nil {
		t.Fatal("expected an error for an infeasible grid")
	}
	if buf.Len() != 0 {
		t.Fatalf("upfront validation must precede execution, wrote %q", buf.String())
	}
	unchecked := sc
	unchecked.CheckN = nil
	if _, err := Execute(unchecked, Options{Ns: []int{4}, Trials: 2, Seed: 1}); err == nil {
		t.Fatal("expected the generator panic to surface as an error")
	}
}

// TestCSVSink checks the CSV schema.
func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	sc := testScenario()
	if _, err := Execute(sc, Options{Ns: []int{8}, Trials: 2, Seed: 1}, NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 records, got:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,n,trial,seed,steps,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], sc.Name+",8,0,") {
		t.Fatalf("bad first record: %s", lines[1])
	}
}

// TestPolicyKindRoundTrip covers the policy name mapping, including the
// deterministic max cost policy newly reachable from the sweep layer.
func TestPolicyKindRoundTrip(t *testing.T) {
	for _, p := range policyKinds {
		got, ok := PolicyKindByName(p.String())
		if !ok || got != p {
			t.Fatalf("round trip failed for %v", p)
		}
		if p.Policy() == nil {
			t.Fatalf("no policy for %v", p)
		}
	}
	if MaxCostDeterministic.Policy().Name() != "max cost (smallest index)" {
		t.Fatalf("MaxCostDeterministic maps to %q", MaxCostDeterministic.Policy().Name())
	}
}

// TestSinkErrorLeavesCleanPrefix checks that after any sink error the
// emitted output stays a contiguous (n, trial) prefix — the property that
// makes every interrupted file resumable in order — instead of recording
// later shards around an interior gap.
func TestSinkErrorLeavesCleanPrefix(t *testing.T) {
	sc := testScenario()
	var got []Record
	writes := 0
	failing := FuncSink(func(rec Record) error {
		writes++
		if writes == 4 {
			return os.ErrClosed
		}
		return nil
	})
	collect := FuncSink(func(rec Record) error { got = append(got, rec); return nil })
	_, err := Execute(sc, Options{Ns: []int{8, 12}, Trials: 6, Seed: 9, Workers: 4, ShardSize: 1}, failing, collect)
	if err == nil {
		t.Fatal("expected the sink error to surface")
	}
	if len(got) == 0 || len(got) >= 12 {
		t.Fatalf("collected %d records", len(got))
	}
	full, _ := runJSONL(t, sc, Options{Ns: []int{8, 12}, Trials: 6, Seed: 9})
	lines := strings.Split(strings.TrimSpace(full), "\n")
	for i, rec := range got {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Write(rec)
		s.Close()
		if strings.TrimSpace(buf.String()) != lines[i] {
			t.Fatalf("record %d is not the reference prefix: %s vs %s", i, buf.String(), lines[i])
		}
	}
}

// TestResumeRejectsMismatchedGrid checks that a checkpoint that is not a
// prefix of the run's (n, trial) order is refused instead of leaving
// stranded or misordered records in the output: a smaller grid or trial
// count, and a larger trial count that puts new n=8 trials in front of
// the recovered n=12 ones.
func TestResumeRejectsMismatchedGrid(t *testing.T) {
	sc := testScenario()
	full, _ := runJSONL(t, sc, Options{Ns: []int{8, 12}, Trials: 6, Seed: 5})
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(sc, Options{Ns: []int{8, 12}, Trials: 3, Seed: 5, Done: cp}); err == nil {
		t.Fatal("expected rejection for a smaller trial count")
	}
	if _, err := Execute(sc, Options{Ns: []int{8}, Trials: 6, Seed: 5, Done: cp}); err == nil {
		t.Fatal("expected rejection for a smaller grid")
	}
	if _, err := Execute(sc, Options{Ns: []int{8, 12}, Trials: 8, Seed: 5, Done: cp}); err == nil {
		t.Fatal("expected rejection for a larger trial count that reorders the checkpoint")
	}
}

// TestResumeExtendsPrefixCheckpoint: a larger trial count extends a
// checkpoint that stays a prefix of the larger run — a one-cell grid, or
// a file cut inside the first cell — into the uninterrupted larger run's
// file, byte for byte.
func TestResumeExtendsPrefixCheckpoint(t *testing.T) {
	sc := testScenario()
	for _, tc := range []struct {
		ns    []int
		lines int
	}{{[]int{8}, 6}, {[]int{8, 12}, 4}} {
		small, _ := runJSONL(t, sc, Options{Ns: tc.ns, Trials: 6, Seed: 5})
		want, wantSum := runJSONL(t, sc, Options{Ns: tc.ns, Trials: 8, Seed: 5})
		lines := strings.SplitAfter(small, "\n")
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines[:tc.lines], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		cp, sink, err := ResumeJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Execute(sc, Options{Ns: tc.ns, Trials: 8, Seed: 5, Workers: 3, ShardSize: 2, Done: cp}, sink)
		if err != nil {
			t.Fatalf("ns=%v: a prefix checkpoint must extend to the larger run: %v", tc.ns, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("ns=%v: extended file differs from the uninterrupted larger run", tc.ns)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Fatalf("ns=%v: extended summary %+v, want %+v", tc.ns, sum, wantSum)
		}
	}
}

// TestExecuteBackendBitIdentical: forcing the CSR backend changes the
// trial's working representation but nothing observable — the record
// stream and summary are byte-for-byte the dense run's, at any worker
// count, because backend materialization never touches the seed stream.
func TestExecuteBackendBitIdentical(t *testing.T) {
	sc := testScenario()
	opt := Options{Ns: []int{8, 12}, Trials: 8, Seed: 5, Workers: 1, ShardSize: 8}
	ref, refSum := runJSONL(t, sc, opt)
	sc.Backend = dynamics.BackendSparse
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		got, gotSum := runJSONL(t, sc, opt)
		if got != ref {
			t.Fatalf("sparse backend (workers=%d) changed the record stream:\n%s\nvs dense:\n%s", workers, got, ref)
		}
		if !reflect.DeepEqual(gotSum, refSum) {
			t.Fatalf("sparse backend (workers=%d) changed the summary: %+v vs %+v", workers, gotSum, refSum)
		}
	}
}
