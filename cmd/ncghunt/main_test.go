package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// runCmd invokes the CLI in-process and returns (exit code, stdout,
// stderr).
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
		{"grid with args", []string{"grid", "extra"}},
		{"unknown sampler", []string{"run", "-samplers", "nope"}},
		{"unknown variant", []string{"run", "-variants", "nope"}},
		{"bad instances", []string{"run", "-instances", "0"}},
		{"bad max-states", []string{"run", "-max-states", "-1"}},
		{"infeasible budget n", []string{"run", "-samplers", "budget-k3", "-n", "6", "-instances", "1"}},
		{"resume without jsonl", []string{"resume"}},
		{"trailing args", []string{"run", "stray"}},
		{"unknown schedule", []string{"run", "-schedule", "simultaneous"}},
		{"serve without dir", []string{"serve"}},
		{"serve bad stream-clients", []string{"serve", "-dir", "x", "-stream-clients", "-1"}},
		{"serve bad log-every", []string{"serve", "-dir", "x", "-log-every", "-1s"}},
		{"work without url", []string{"work"}},
		{"watch without url", []string{"watch"}},
		{"watch bad wait", []string{"watch", "-url", "http://x", "-wait", "0s"}},
		{"watch bad max", []string{"watch", "-url", "http://x", "-max", "-1"}},
	} {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}

// TestServeWorkWatchSmoke drives the full service surface through the
// CLI: serve hosts the campaign in a registry, work drains it over the
// lease protocol, watch streams the committed records, and the watched
// bytes are exactly the merged records.jsonl.
func TestServeWorkWatchSmoke(t *testing.T) {
	dir := t.TempDir()
	camp := []string{
		"-samplers", "cycle-pendant", "-variants", "sum-asg",
		"-instances", "2", "-max-states", "100",
	}
	serveArgs := append([]string{"serve", "-dir", dir, "-addr", "127.0.0.1:0", "-shard", "1", "-log-every", "0"}, camp...)
	var sout, serr syncBuffer
	serveCode := make(chan int, 1)
	go func() { serveCode <- run(serveArgs, &sout, &serr) }()

	// The listen address is announced on stdout once the service is up.
	addrRe := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var url string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := addrRe.FindStringSubmatch(sout.String()); m != nil {
			url = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never announced its address\nstdout: %s\nstderr: %s", sout.String(), serr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Registry surface: liveness and readiness answer on the same port.
	for _, path := range []string{"/healthz", "/readyz"} {
		res, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, res.StatusCode)
		}
	}

	if code, _, errOut := runCmd(append([]string{"work", "-url", url, "-name", "w1"}, camp...)...); code != 0 {
		t.Fatalf("work exit %d, stderr: %s", code, errOut)
	}
	code, watched, errOut := runCmd("watch", "-url", url, "-wait", "1s")
	if code != 0 {
		t.Fatalf("watch exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "watch complete") {
		t.Fatalf("watch did not report completion, stderr: %s", errOut)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(watched), merged) {
		t.Fatalf("watched stream differs from merged records:\nwatched: %q\nmerged:  %q", watched, merged)
	}

	// serve exits on its own once the campaign completes.
	select {
	case code := <-serveCode:
		if code != 0 {
			t.Fatalf("serve exit %d, stderr: %s", code, serr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("serve never exited after completion\nstderr: %s", serr.String())
	}
}

func TestGrid(t *testing.T) {
	code, out, _ := runCmd("grid")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"cycle-pendant", "budget-k3", "sum-asg", "max-bg", "rounds-sum-sg", "rounds trajectory"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output misses %q", want)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	code, out, errOut := runCmd("run",
		"-samplers", "cycle-pendant", "-variants", "sum-asg",
		"-instances", "2", "-max-states", "100", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "2 instances searched") {
		t.Errorf("summary missing searched count:\n%s", out)
	}
}

// TestRoundHuntSmoke: a round variant runs on the campaign spine, and the
// -schedule override switches a built-in variant to round search.
func TestRoundHuntSmoke(t *testing.T) {
	code, out, errOut := runCmd("run",
		"-samplers", "random-tree", "-variants", "rounds-sum-sg",
		"-n", "8", "-instances", "2", "-max-states", "200", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "rounds-sum-sg") || !strings.Contains(out, "2 instances searched") {
		t.Errorf("round hunt summary incomplete:\n%s", out)
	}
	code, _, errOut = runCmd("run",
		"-samplers", "random-tree", "-variants", "sum-sg", "-schedule", "rounds",
		"-n", "8", "-instances", "2", "-max-states", "200", "-workers", "1")
	if code != 0 {
		t.Fatalf("-schedule override exit %d, stderr: %s", code, errOut)
	}
}

func TestRunAndResumeJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hunt.jsonl")
	code, _, errOut := runCmd("run",
		"-samplers", "random-tree", "-variants", "sum-asg",
		"-n", "5", "-instances", "3", "-max-states", "100", "-jsonl", path)
	if code != 0 {
		t.Fatalf("run exit %d, stderr: %s", code, errOut)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.Split(bytes.TrimSpace(full), []byte("\n"))) != 3 {
		t.Fatalf("expected 3 records, got %q", full)
	}
	// Truncate mid-stream and resume: the file must come back identical.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCmd("resume",
		"-samplers", "random-tree", "-variants", "sum-asg",
		"-n", "5", "-instances", "3", "-max-states", "100", "-jsonl", path)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, errOut)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Fatal("resumed file differs from the uninterrupted run")
	}
}

// TestProfileFlags: run takes -cpuprofile and -memprofile.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, _, errOut := runCmd("run",
		"-samplers", "cycle-pendant", "-variants", "sum-asg",
		"-instances", "2", "-max-states", "100", "-workers", "1",
		"-cpuprofile", cpu, "-memprofile", mem)
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
