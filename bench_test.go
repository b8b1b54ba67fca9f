package repro

// Benchmark harness: one benchmark per table and figure of the thesis's
// evaluation (run `go test -bench=. -benchmem`), plus micro-benchmarks of
// the solver kernels. Tables 4.7 and 4.8 are ledger entries
// (ledger_test.go: BenchmarkLedger/Table47, /Table48). The same code
// paths are printed by cmd/paperbench; EXPERIMENTS.md records
// paper-vs-measured values.

import (
	"testing"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkFig49 regenerates Fig. 4.9 (power vs load for fixed windows).
func BenchmarkFig49(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig49(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable412 regenerates Table 4.12 (4-class network vs the
// Kleinrock baseline).
func BenchmarkTable412(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table412(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig21 regenerates the qualitative Fig. 2.1 congestion curves
// (simulated, finite buffers, with and without windows).
func BenchmarkFig21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig21(experiments.Fig21Config{
			Window: 0, Buffers: 4, Seed: 5, Duration: 120, Warmup: 20,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig21(experiments.Fig21Config{
			Window: 3, Buffers: 4, Seed: 5, Duration: 120, Warmup: 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEvaluators times the WINDIM evaluator ablation on the
// 4-class network.
func BenchmarkAblationEvaluators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation([4]float64{6, 6, 6, 12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingArpa times the larger-network study: WINDIM plus
// cross-solver checks on the 10-node ARPANET-style mesh with 6 classes.
func BenchmarkScalingArpa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Scaling(8, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness times the assumption-breaking study (16 simulation
// runs across 8 scenarios, one replication each).
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity times the static-vs-retuned window study.
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Sensitivity(20, experiments.DefaultSensitivitySweep, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver kernels -------------------------------------------------

// BenchmarkSigmaAMVA times one σ-heuristic evaluation of the 4-class
// model — the inner loop of WINDIM and the thesis's claimed win.
func BenchmarkSigmaAMVA(b *testing.B) {
	n := topo.Canada4Class(6, 6, 6, 12)
	model, _, err := n.ClosedModel(numeric.IntVector{4, 4, 3, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.Approximate(model, mva.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactMVA4Class times the exact recursion on the same model —
// the cost WINDIM avoids (compare with BenchmarkSigmaAMVA).
func BenchmarkExactMVA4Class(b *testing.B) {
	n := topo.Canada4Class(6, 6, 6, 12)
	model, _, err := n.ClosedModel(numeric.IntVector{4, 4, 3, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.ExactMultichain(model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigmaAMVALargeWindows and BenchmarkExactMVALargeWindows show
// the crossover that justifies the heuristic: at the thesis's small
// windows the exact lattice is tiny and exact MVA is actually faster,
// but the exact cost grows as prod(E_r+1) while the σ-heuristic grows
// linearly in sum(E_r) — at windows (20,20,20,20) the exact recursion
// walks ~194k lattice points per evaluation.
func BenchmarkSigmaAMVALargeWindows(b *testing.B) {
	n := topo.Canada4Class(6, 6, 6, 12)
	model, _, err := n.ClosedModel(numeric.IntVector{20, 20, 20, 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.Approximate(model, mva.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactMVALargeWindows(b *testing.B) {
	n := topo.Canada4Class(6, 6, 6, 12)
	model, _, err := n.ClosedModel(numeric.IntVector{20, 20, 20, 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.ExactMultichain(model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigmaAMVAArpa6Class evaluates the 6-class mesh, where the
// exact lattice at the same windows (9^6 ≈ 531k points x 23 stations)
// is out of practical reach for a search inner loop.
func BenchmarkSigmaAMVAArpa6Class(b *testing.B) {
	n, err := topo.Arpa(nil)
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := n.ClosedModel(numeric.IntVector{8, 8, 8, 8, 8, 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.Approximate(model, mva.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolution4Class times the exact convolution algorithm — the
// Chapter 3 method whose cost motivates the heuristic.
func BenchmarkConvolution4Class(b *testing.B) {
	n := topo.Canada4Class(6, 6, 6, 12)
	model, _, err := n.ClosedModel(numeric.IntVector{4, 4, 3, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convolution.Solve(model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures simulator event throughput on the 2-class
// network, reported as ns per executed event. A handful of events are
// pending at any time, so this is the calendar scheduler's small mode.
func BenchmarkSimulator(b *testing.B) {
	n := topo.Canada2Class(20, 20)
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(n, sim.Config{
			Windows: numeric.IntVector{4, 4}, Duration: 100, Warmup: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSimulatorLargePopulation measures event throughput on a
// 64-node mesh with 32 classes at window 8, 50 ms acknowledgement delay
// and 20% background traffic on every channel: about 200 events pending,
// so the calendar scheduler runs its bucket directory. Reported as ns per
// executed event.
func BenchmarkSimulatorLargePopulation(b *testing.B) {
	n, err := topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for r := range n.Classes {
		n.Classes[r].AckDelay = 0.05
	}
	for l := range n.Channels {
		n.Channels[l].Background = 0.2
	}
	windows := numeric.NewIntVector(len(n.Classes))
	for r := range windows {
		windows[r] = 8
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(n, sim.Config{
			Windows: windows, Duration: 20, Warmup: 2, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSingleChainMVA times the σ sub-problem kernel.
func BenchmarkSingleChainMVA(b *testing.B) {
	visits := numeric.Vector{1, 1, 1, 1, 1}
	serv := numeric.Vector{0.1, 0.02, 0.02, 0.02, 0.04}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mva.ExactSingleChain(visits, serv, nil, 8); err != nil {
			b.Fatal(err)
		}
	}
}
