package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunIndividualSelections(t *testing.T) {
	// The cheap selections run for real; 4.9/4.12/-all are covered by the
	// root benchmarks and the experiments package tests.
	for _, args := range [][]string{
		{"-table", "4.7"},
		{"-table", "4.8"},
		{"-validate"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("expected nothing-selected error")
	}
	if err := run([]string{"-evaluator", "crystal"}); err == nil {
		t.Error("expected evaluator error")
	}
	if err := run([]string{"-flagless"}); err == nil {
		t.Error("expected flag error")
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile each write a non-empty
// profile of a table regeneration.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-table", "4.7", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
