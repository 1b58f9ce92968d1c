package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"list with args", []string{"list", "extra"}},
		{"run without scenario", []string{"run"}},
		{"unknown scenario", []string{"run", "no-such-scenario"}},
		{"nmin without nmax", []string{"run", "fig1-sg-max-path", "-nmin", "10"}},
		{"bad grid order", []string{"run", "fig1-sg-max-path", "-nmin", "20", "-nmax", "10"}},
		{"sweep without grid", []string{"sweep", "fig7-asg-sum-k2"}},
		{"resume without jsonl", []string{"run", "fig1-sg-max-path", "-resume"}},
		{"fig without number", []string{"fig"}},
		{"fig bad number", []string{"fig", "3"}},
		{"infeasible budget grid", []string{"run", "sg-sum-budget-k3", "-nmin", "4", "-nmax", "4", "-trials", "1"}},
		{"unknown schedule", []string{"run", "sg-sum-budget-k3", "-schedule", "simultaneous"}},
	} {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}

func TestListSmoke(t *testing.T) {
	code, out, _ := runCmd("list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig7-asg-sum-k2", "bilateral-sum-tree", "POLICY", "SCHEDULE", "rounds-sg-sum-budget-k3"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output misses %q", want)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	code, out, errOut := runCmd("run", "fig1-sg-max-path",
		"-nmin", "8", "-nmax", "8", "-trials", "1", "-workers", "1", "-jsonl", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "fig1-sg-max-path") {
		t.Errorf("summary missing scenario name:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"scenario":"fig1-sg-max-path"`)) {
		t.Errorf("JSONL record missing: %q", data)
	}
}

func TestSweepSmoke(t *testing.T) {
	code, out, errOut := runCmd("sweep", "asg-sum-tree",
		"-nmin", "6", "-nmax", "8", "-nstep", "2", "-trials", "1", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "asg-sum-tree") {
		t.Errorf("summary missing scenario name:\n%s", out)
	}
}

// TestScheduleOverrideSmoke: -schedule switches a sequential scenario to
// round play (and a round scenario runs as registered).
func TestScheduleOverrideSmoke(t *testing.T) {
	code, out, errOut := runCmd("run", "sg-sum-budget-k3",
		"-nmin", "8", "-nmax", "8", "-trials", "2", "-workers", "1", "-schedule", "rounds")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "sg-sum-budget-k3") {
		t.Errorf("summary missing scenario name:\n%s", out)
	}
	code, _, errOut = runCmd("run", "rounds-asg-sum-k2",
		"-nmin", "8", "-nmax", "8", "-trials", "2", "-workers", "1")
	if code != 0 {
		t.Fatalf("round scenario exit %d, stderr: %s", code, errOut)
	}
}

func TestFigSmoke(t *testing.T) {
	code, out, errOut := runCmd("fig", "7",
		"-nmin", "10", "-nmax", "10", "-trials", "1", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "worst max-steps/n") {
		t.Errorf("figure output incomplete:\n%s", out)
	}
}

// TestResumeRebuildsCSV: a -resume run hands every trial, recovered ones
// included, to a fresh -csv file, so the CSV equals the uninterrupted
// run's CSV.
func TestResumeRebuildsCSV(t *testing.T) {
	dir := t.TempDir()
	jsonlPath, csvPath := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.csv")
	args := []string{"run", "fig7-asg-sum-k2", "-nmin", "8", "-nmax", "12", "-nstep", "4", "-trials", "5", "-workers", "2"}
	if code, _, errOut := runCmd(append(args, "-jsonl", jsonlPath, "-csv", csvPath)...); code != 0 {
		t.Fatalf("run exit %d, stderr: %s", code, errOut)
	}
	full, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-line, then resume into a fresh CSV path.
	if err := os.WriteFile(jsonlPath, full[:len(full)/2+5], 0o644); err != nil {
		t.Fatal(err)
	}
	resumedCSV := filepath.Join(dir, "resumed.csv")
	code, _, errOut := runCmd(append(args, "-resume", "-jsonl", jsonlPath, "-csv", resumedCSV)...)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "trials recovered") {
		t.Fatalf("resume reported no recovered trials: %s", errOut)
	}
	gotCSV, err := os.ReadFile(resumedCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("resumed CSV differs from the uninterrupted run's:\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	if resumed, err := os.ReadFile(jsonlPath); err != nil || !bytes.Equal(resumed, full) {
		t.Fatalf("resumed JSONL differs from the uninterrupted run (%v)", err)
	}
}
