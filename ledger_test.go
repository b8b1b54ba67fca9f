package repro

// The work ledger: one table of representative WINDIM workloads, read
// two ways. TestWorkLedger pins each entry's work units (objective
// evaluations for a search, executed events for the simulator) and its
// allocations per run exactly: both are deterministic, so any change is a
// change of algorithm, not noise. The allocation pins hold for the
// toolchain go.mod names (go1.24.0): the runtime and the compiler decide
// how many allocations a line of Go costs, so a toolchain bump commits
// new pins. BenchmarkLedger times the same bodies:
//
//	go test -run '^TestWorkLedger$' .
//	go test -run '^$' -bench Ledger -benchmem .
//
// A change that moves a pin on purpose updates it here and says why in
// CHANGES.md. The per-layer counts of the declared benchmark are pinned
// the same way, by the newest BENCH_<n>.json at the repository root.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// raceEnabled is set by race_test.go; the race detector instruments
// allocations, so the allocation pins are skipped under it.
var raceEnabled bool

// unpinned marks an entry whose allocations are not pinned.
const unpinned = -1

// ledgerEntry is one workload of the ledger.
type ledgerEntry struct {
	name string
	// build prepares the entry's shared state and returns its body. One
	// call of the body performs the operation once and returns the work
	// units it spent (0 where the entry counts none).
	build func() (func() (int, error), error)
	// work and allocs are the pinned work units and allocations of one
	// run of the body.
	work, allocs int
}

// ledger returns the workload table. Allocations of DimensionParallel
// are unpinned: its probes run on up to four goroutines, and how many
// goroutines and wait records the runtime allocates afresh depends on
// how they interleave (repeated runs read 582 to 599).
func ledger() []ledgerEntry {
	canada2 := topo.Canada2Class(20, 20)
	canada4 := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	serial := core.Options{Workers: 1}
	cold := serial
	cold.ColdStart = true
	parallel := serial
	parallel.Workers = 4
	// The exact-oracle pair: one exhaustive box over Canada4Class, solved
	// exactly per candidate versus served from one shared convolution
	// lattice.
	exhaustiveSolve := serial
	exhaustiveSolve.Evaluator = core.EvalExactMVA
	exhaustiveSolve.Search = core.ExhaustiveSearch
	exhaustiveSolve.MaxWindow = 7
	exhaustiveLattice := exhaustiveSolve
	exhaustiveLattice.ExactEngine = true

	dimension := func(n *netmodel.Network, opts core.Options) func() (func() (int, error), error) {
		return stateless(func() (int, error) {
			res, err := core.Dimension(n, opts)
			if err != nil {
				return 0, err
			}
			return res.Search.Evaluations, nil
		})
	}
	entries := []ledgerEntry{
		{"Table47", stateless(func() (int, error) {
			rows, err := experiments.Table47(serial)
			n := 0
			for _, r := range rows {
				n += r.Evaluations
			}
			return n, err
		}), 78, 1704},
		{"Table48", stateless(func() (int, error) {
			rows, err := experiments.Table48(serial)
			n := 0
			for _, r := range rows {
				n += r.Evaluations
			}
			return n, err
		}), 67, 1530},
		// One candidate through a reused engine: the steady state of a
		// search's inner loop.
		{"EvaluateEngine/canada4", engineProbe(canada4, serial, numeric.IntVector{4, 4, 3, 2}, nil), 0, 0},
		{"DimensionCold/canada2", dimension(canada2, cold), 5, 137},
		{"DimensionWarm/canada2", dimension(canada2, serial), 5, 143},
		{"DimensionParallel/canada4", dimension(canada4, parallel), 33, unpinned},
		{"robust_dimension", stateless(func() (int, error) {
			res, err := core.DimensionRobust(canada4, robustLedgerScenarios(), core.RobustMinimax, serial)
			if err != nil {
				return 0, err
			}
			return res.Search.Evaluations, nil
		}), 18, 748},
		// A candidate inside an already-built convolution lattice: the
		// steady state of an engine-backed exact search, which must cost
		// slice reads, not a recursion over the box.
		{"exact_engine", engineProbe(canada2, exhaustiveLattice, numeric.IntVector{4, 5}, numeric.IntVector{6, 6}), 0, 8},
		{"exhaustive_exact", dimension(canada4, exhaustiveLattice), 2401, 55415},
		{"exhaustive_exact_solve", dimension(canada4, exhaustiveSolve), 2401, 55340},
	}
	// amva_sparse: one warm candidate on networks of growing station count
	// but fixed route lengths; the sparse solver's cost follows the route
	// lengths, not the station count.
	sparse := []struct {
		name string
		net  func() (*netmodel.Network, error)
	}{
		{"canada4", func() (*netmodel.Network, error) { return canada4, nil }},
		{"clos12x6", func() (*netmodel.Network, error) { return topo.Clos(12, 6, 48, topo.GenConfig{Seed: 1}) }},
		{"mesh64", func() (*netmodel.Network, error) { return topo.Mesh(64, 64, 48, topo.GenConfig{Seed: 1}) }},
		{"mesh256", func() (*netmodel.Network, error) { return topo.Mesh(256, 256, 48, topo.GenConfig{Seed: 1}) }},
	}
	for _, s := range sparse {
		entries = append(entries, ledgerEntry{"amva_sparse/" + s.name, func() (func() (int, error), error) {
			n, err := s.net()
			if err != nil {
				return nil, err
			}
			hw := n.HopVector()
			return engineProbe(n, serial, hw, hw)()
		}, 0, 0})
	}
	// sim_event: one replication of the Fig. 4.6 Canada-4 workload through
	// a reused Runner, the zero-alloc steady state replications live in.
	entries = append(entries, ledgerEntry{"sim_event/canada4", func() (func() (int, error), error) {
		runner, err := sim.NewRunner(canada4, sim.Config{
			Windows: numeric.IntVector{4, 4, 3, 2}, Duration: 200, Warmup: 20,
		})
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			res, err := runner.Run(1)
			if err != nil {
				return 0, err
			}
			return int(res.Events), nil
		}, nil
	}, 22474, 19})
	// sim_replications: the batch path, four replications under an
	// outage, a degradation and a surge on one worker.
	faulted := sim.Config{
		Windows: numeric.IntVector{4, 4}, Duration: 300, Warmup: 30,
		Faults: &sim.FaultSpec{
			Outages:      []sim.Outage{{Channel: 1, Start: 60, End: 80}},
			Degradations: []sim.Degradation{{Channel: 0, Start: 100, End: 160, Factor: 0.5}},
			Surges:       []sim.Surge{{Class: 1, Start: 120, End: 200, Factor: 2.5}},
		},
	}
	entries = append(entries, ledgerEntry{"sim_replications/canada2", stateless(func() (int, error) {
		batch, err := sim.RunReplications(context.Background(), canada2, faulted, 4, 1)
		if err != nil {
			return 0, err
		}
		n := 0
		for i := range batch.Reps {
			if r := batch.Reps[i].Result; r != nil {
				n += int(r.Events)
			}
		}
		return n, nil
	}), 170525, 178})
	return entries
}

// stateless wraps a body that needs no set-up.
func stateless(body func() (int, error)) func() (func() (int, error), error) {
	return func() (func() (int, error), error) { return body, nil }
}

// engineProbe builds an engine on n, evaluates prime once and commits it
// when prime is non-nil (so the probe runs warm, or inside a lattice
// built for prime's box), and returns a body that evaluates w.
func engineProbe(n *netmodel.Network, opts core.Options, w, prime numeric.IntVector) func() (func() (int, error), error) {
	return func() (func() (int, error), error) {
		eng, err := core.NewEngine(n, opts)
		if err != nil {
			return nil, err
		}
		if prime != nil {
			if _, err := eng.ObjectiveValue(prime, opts.Objective); err != nil {
				return nil, err
			}
			eng.Commit(prime)
		}
		return func() (int, error) {
			_, err := eng.ObjectiveValue(w, opts.Objective)
			return 0, err
		}, nil
	}
}

// robustLedgerScenarios is the fixed three-scenario set of the
// robust_dimension entry: nominal, a degraded shared trunk, and a surged
// short class.
func robustLedgerScenarios() []core.Scenario {
	capScale := []float64{1, 1, 1, 1, 1, 1, 1}
	capScale[topo.ChWT] = 0.6
	return []core.Scenario{
		{Name: "nominal", Weight: 0.6},
		{Name: "trunk-degraded", CapacityScale: capScale, Weight: 0.2},
		{Name: "class4-surge", RateScale: []float64{1, 1, 1, 2}, Weight: 0.2},
	}
}

// TestWorkLedger pins every ledger entry's work units and, outside the
// race detector, its allocations per run.
func TestWorkLedger(t *testing.T) {
	for _, e := range ledger() {
		t.Run(e.name, func(t *testing.T) {
			body, err := e.build()
			if err != nil {
				t.Fatal(err)
			}
			work, err := body()
			if err != nil {
				t.Fatal(err)
			}
			if work != e.work {
				t.Errorf("%d work units per run, pinned %d", work, e.work)
			}
			if e.allocs == unpinned || raceEnabled {
				return
			}
			// The runtime now and then adds an allocation of its own to a
			// run (once in about 240 runs of exhaustive_exact) and never
			// takes one away, so a mismatch is measured again and the
			// fewest allocations of up to three runs count. Every count
			// that missed the pin is logged, so an extra allocation that
			// comes and goes stays visible.
			allocs := runAllocs(t, body)
			for try := 1; try < 3 && allocs != e.allocs; try++ {
				t.Logf("run %d: %d allocations, pinned %d; measuring again", try, allocs, e.allocs)
				allocs = min(allocs, runAllocs(t, body))
			}
			if allocs != e.allocs {
				t.Errorf("%d allocations per run, pinned %d", allocs, e.allocs)
			}
		})
	}
}

// runAllocs counts the allocations of one run of body after a warm-up
// run, on one P (testing.AllocsPerRun).
func runAllocs(t *testing.T, body func() (int, error)) int {
	return int(testing.AllocsPerRun(1, func() {
		if _, err := body(); err != nil {
			t.Fatal(err)
		}
	}))
}

// BenchmarkLedger times each ledger entry's body, reporting its work
// units per run beside ns/op.
func BenchmarkLedger(b *testing.B) {
	for _, e := range ledger() {
		b.Run(e.name, func(b *testing.B) {
			body, err := e.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			work := 0
			for i := 0; i < b.N; i++ {
				n, err := body()
				if err != nil {
					b.Fatal(err)
				}
				work += n
			}
			if work > 0 {
				b.ReportMetric(float64(work)/float64(b.N), "work/op")
			}
		})
	}
}
