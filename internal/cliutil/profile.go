package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds a command's -cpuprofile and -memprofile flags.
type Profile struct {
	prog     string
	cpu, mem *string
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	return &Profile{
		prog: fs.Name(),
		cpu:  fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:  fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins the CPU profile when -cpuprofile is set, and returns the
// function to defer: it stops the CPU profile and, when -memprofile is
// set, writes the heap profile after a GC. Failures at exit go to stderr,
// prefixed with the command's name, and do not change its exit status.
func (p *Profile) Start() (stop func(), err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", p.prog, err)
			}
		}
		if *p.mem != "" {
			if err := writeHeapProfile(*p.mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", p.prog, err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
