package cli

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile/-memprofile flag pair of the commands, so a
// slow run can be read with go tool pprof instead of by editing code.
// Empty paths disable the respective profile.
type Profiles struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile taken after the run to this file")
}

// Start begins the CPU profile and returns the function that ends the
// run's profiles: it stops the CPU profile and closes its file, then
// writes the heap profile. Commands defer it, so the profiles are written
// on every exit path, an interrupt's included. Failures exit 1 through a.
func (p *Profiles) Start(a *App) (stop func()) {
	var cpu *os.File
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			a.Errorf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			a.Errorf("cpuprofile: %v", err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				a.Errorf("cpuprofile: %v", err)
			}
		}
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			a.Errorf("memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile shows live retention
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			a.Errorf("memprofile: %v", err)
		}
	}
}
