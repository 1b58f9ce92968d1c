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
		{"unknown game", []string{"-game", "nope"}},
		{"unknown policy", []string{"-policy", "nope"}},
		{"unknown init", []string{"-init", "nope"}},
		{"bad n", []string{"-n", "0"}},
		{"bad alpha denominator", []string{"-alpha-den", "0"}},
		{"infeasible budget", []string{"-init", "budget-k", "-n", "6", "-k", "3"}},
		{"stray argument", []string{"stray"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"unknown schedule", []string{"-schedule", "simultaneous"}},
	} {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}

// TestRoundTrace: a round schedule traces simultaneous moves and reports
// the round summary line; an explicit -schedule sequential matches the
// default trace exactly.
func TestRoundTrace(t *testing.T) {
	code, out, errOut := runCmd("-n", "7", "-schedule", "rounds")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "rounds=") || !strings.Contains(out, "skipped=") {
		t.Errorf("round trace missing its summary line:\n%s", out)
	}
	_, def, _ := runCmd("-n", "7")
	_, seq, _ := runCmd("-n", "7", "-schedule", "sequential")
	if def != seq {
		t.Errorf("-schedule sequential diverged from the default trace")
	}
}

// TestFigure1Trace: the default invocation reproduces the Figure 1 setting
// and converges to a star or double star.
func TestFigure1Trace(t *testing.T) {
	code, out, errOut := runCmd("-n", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "converged=true") {
		t.Errorf("trace did not converge:\n%s", out)
	}
	if !strings.Contains(out, "step ") {
		t.Errorf("no steps printed:\n%s", out)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile profile a landmark-mode
// trace on the CSR backend.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, _, errOut := runCmd("-n", "80", "-game", "sum-sg", "-init", "random-tree",
		"-oracle", "landmark:4", "-backend", "sparse", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
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
