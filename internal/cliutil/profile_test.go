package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsWriteProfiles: each flag writes a non-empty profile, and
// with neither flag set Start writes nothing.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	for _, flagName := range []string{"cpuprofile", "memprofile"} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		p := ProfileFlags(fs)
		path := map[string]string{"cpuprofile": cpu, "memprofile": mem}[flagName]
		if err := fs.Parse([]string{"-" + flagName, path}); err != nil {
			t.Fatal(err)
		}
		stop, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		sink := 0
		for i := 0; i < 1e6; i++ {
			sink += i % 7
		}
		_ = sink
		stop()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("-%s: profile not written: %v", flagName, err)
		}
		if st.Size() == 0 {
			t.Fatalf("-%s: profile is empty", flagName)
		}
	}

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("%d files in the profile directory, want the 2 written above", len(entries))
	}

	// An unwritable CPU profile path is an error at Start.
	fs = flag.NewFlagSet("tool", flag.ContinueOnError)
	p = ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err == nil {
		t.Fatal("unwritable -cpuprofile accepted")
	}
}
