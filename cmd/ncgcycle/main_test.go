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
		{"stray argument", []string{"stray"}},
		{"negative workers", []string{"-workers", "-1"}},
		{"negative max-states", []string{"-max-states", "-5"}},
		{"negative progress", []string{"-progress", "-1s"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"unknown schedule", []string{"-schedule", "simultaneous"}},
	} {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}

// TestTinyCapSmoke runs the full command with a deliberately tiny state
// cap: every construction still verifies, every exploration aborts at the
// cap, and the command reports the failures with exit code 1. This pins
// the whole pipeline (verification, exploration wiring, reporting) without
// paying for the full default-cap explorations.
func TestTinyCapSmoke(t *testing.T) {
	code, out, _ := runCmd("-max-states", "50", "-workers", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (capped explorations must be reported)", code)
	}
	if !strings.Contains(out, "Fig3 SUM-ASG") || !strings.Contains(out, "ok") {
		t.Errorf("verification section incomplete:\n%s", out)
	}
	if !strings.Contains(out, "state space exceeds 50 states") {
		t.Errorf("capped explorations not reported:\n%s", out)
	}
	if !strings.Contains(out, "verification failures") {
		t.Errorf("failure summary missing:\n%s", out)
	}
}

// TestScheduleSmoke: -schedule adds the figure-start trajectory section
// (again under a tiny cap so the explorations stay cheap; their capped
// failures are expected and keep the exit code at 1).
func TestScheduleSmoke(t *testing.T) {
	code, out, _ := runCmd("-max-states", "50", "-workers", "1", "-schedule", "rounds")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (capped explorations must be reported)", code)
	}
	for _, want := range []string{
		"trajectories under the rounds schedule",
		"Fig 2 MAX-SG",
		"Fig 10 MAX-GBG",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory section misses %q:\n%s", want, out)
		}
	}
}

// TestProfileFlags: the profiles are written on the failure exit too
// (capped explorations exit 1).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code, _, _ := runCmd("-max-states", "50", "-workers", "1", "-cpuprofile", cpu, "-memprofile", mem); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	checkProfiles(t, cpu, mem)
}

// checkProfiles requires both profile files to exist and be non-empty.
func checkProfiles(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: profile missing or empty (%v)", p, err)
		}
	}
}
