package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWrittenOnExit: a command that defers Profiles.Start writes
// both profiles even when it leaves through Exit, and closes the CPU
// profile's file (the open descriptor count returns to where it was).
func TestProfilesWrittenOnExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	before := fds()
	code := Run("tool", "", io.Discard, io.Discard, func(a *App) {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		var p Profiles
		p.Register(fs)
		if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
			t.Fatal(err)
		}
		defer p.Start(a)()
		x := 0
		for i := 0; i < 1e6; i++ {
			x += i * i
		}
		_ = x
		Exit(130)
	})
	if code != 130 {
		t.Fatalf("exit %d, want 130", code)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: profile missing or empty (%v)", path, err)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("%d open descriptors after the run, %d before: a profile file stayed open", after, before)
	}
}
