package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunHappyPath(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-rates", "20,20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExactExhaustive(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-evaluator", "exact",
		"-search", "exhaustive", "-max-window", "6", "-trace"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSchweitzerWithStart(t *testing.T) {
	if err := run([]string{"-example", "canada4", "-evaluator", "schweitzer",
		"-start", "2,2,2,2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweep(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-sweep", "0.8,1.5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-example", "canada2", "-sweep", "x"}); err == nil {
		t.Error("expected sweep parse error")
	}
	if err := run([]string{"-example", "canada2", "-sweep", "-1"}); err == nil {
		t.Error("expected positive-scale error")
	}
}

func TestRunRobustScenarios(t *testing.T) {
	for _, kind := range []string{"minmax", "weighted"} {
		if err := run([]string{"-example", "canada4", "-scenarios", "../../examples/scenarios.json",
			"-robust", kind}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestRunRobustErrors(t *testing.T) {
	dir := t.TempDir()
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte(`{"scenarios": [{"capacity_scale": {"nosuch": 0.5}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-example", "canada4", "-scenarios", "../../examples/scenarios.json", "-robust", "psychic"},
		{"-example", "canada4", "-scenarios", filepath.Join(dir, "missing.json")},
		{"-example", "canada4", "-scenarios", badJSON},
		// canada2 lacks class4, so the canada4 scenario file must be rejected.
		{"-example", "canada2", "-scenarios", "../../examples/scenarios.json"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                   // no network
		{"-example", "nope"}, // unknown example
		{"-example", "canada2", "-evaluator", "psychic"},
		{"-example", "canada2", "-search", "random"},
		{"-example", "canada2", "-rates", "1"},     // wrong rate count
		{"-example", "canada2", "-start", "1,2,3"}, // wrong start length
		{"-example", "canada2", "-start", "a,b"},   // bad start syntax
		{"-bogus-flag"},                            // flag error
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunGeneratedTopology(t *testing.T) {
	if err := run([]string{"-topo", "clos:5,2,8", "-reduce"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topo", "mesh:8,3,6", "-topo-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-example", "canada4", "-reduce"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-topo", "clos:5,2,8", "-example", "canada2"}, // mutually exclusive
		{"-topo", "clos:5,2,8", "-spec", "x.json"},     // mutually exclusive
		{"-topo", "clos:5,2,8", "-rates", "1,2"},       // rates are generated
		{"-topo", "torus:5,2,8"},                       // unknown family
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile each write a non-empty
// profile of a dimensioning run.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-topo", "mesh:24,24,12", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
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
