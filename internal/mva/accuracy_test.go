package mva_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/qnet"
	"repro/internal/topo"
)

// accuracyModel is one closed model of the accuracy suite with the
// exclusion lists its power metrics need.
type accuracyModel struct {
	name     string
	net      *qnet.Network
	excluded [][]int
}

// accuracyModels returns the suite's fixed model set: the 2-class Canada
// network over the Table 4.7 load span at every window pair in 1–8, the
// 4-class Canada network at windows drawn from {1, 3, 5, 8}, and the
// 64-node generated mesh at all-ones and hop-count windows.
func accuracyModels(t *testing.T) []accuracyModel {
	t.Helper()
	var out []accuracyModel
	add := func(label string, n *netmodel.Network, w numeric.IntVector) {
		net, excluded, err := n.ClosedModel(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, accuracyModel{fmt.Sprintf("%s %v", label, w), net, excluded})
	}
	for _, s := range []float64{5, 10, 15, 20, 25, 37.5, 50, 75} {
		n := topo.Canada2Class(s, s)
		for w1 := 1; w1 <= 8; w1++ {
			for w2 := 1; w2 <= 8; w2++ {
				add(fmt.Sprintf("canada2 S=%g", s), n, numeric.IntVector{w1, w2})
			}
		}
	}
	c4 := topo.Canada4Class(6, 6, 6, 12)
	levels := []int{1, 3, 5, 8}
	for _, a := range levels {
		for _, b := range levels {
			for _, c := range levels {
				for _, d := range levels {
					add("canada4", c4, numeric.IntVector{a, b, c, d})
				}
			}
		}
	}
	mesh, err := topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ones := numeric.NewIntVector(len(mesh.Classes))
	for i := range ones {
		ones[i] = 1
	}
	add("mesh", mesh, ones)
	add("mesh", mesh, mesh.HopVector())
	return out
}

// TestApproximatePowerAccuracy is the tolerance contract of Approximate,
// checked without a reference solver: at the default Tol, the network
// power of every model in the suite is within 1e-7 relative of the same
// solve run to Tol 1e-13, for both methods, undamped and damped, from
// both cold initialisations. A stop rule that watched the throughputs
// alone passed canada2 solves whose power was still up to 1.3e-3
// (relative) from the fixed point: a queue-length error mode can barely
// move the throughputs. The suite also bounds the mean sweeps per
// default-Tol solve, a deterministic guard on the iteration's speed.
func TestApproximatePowerAccuracy(t *testing.T) {
	const (
		maxRelErr = 1e-7
		// Mean default-Tol sweeps over the whole grid: 27.3 with the
		// extrapolation, 54.3 for the plain iteration under the
		// throughput-only stop rule.
		maxMeanSweeps = 30.0
	)
	models := accuracyModels(t)
	ws := mva.NewWorkspace()
	sweeps, solves := 0, 0
	worst := 0.0
	for _, m := range []mva.Method{mva.SigmaHeuristic, mva.Schweitzer} {
		for _, damping := range []float64{0, 0.5} {
			for _, init := range []mva.Initialization{mva.Balanced, mva.Bottleneck} {
				opts := mva.Options{Method: m, Init: init, Damping: damping}
				tight := opts
				tight.Tol = 1e-13
				cfgWorst := 0.0
				for _, am := range models {
					ref := powerOf(t, am, tight, nil)
					got := powerOf(t, am, opts, ws)
					sweeps += got.iterations
					solves++
					rel := math.Abs(got.power-ref.power) / ref.power
					cfgWorst = max(cfgWorst, rel)
					if rel > maxRelErr {
						t.Errorf("%v damping=%v %v, %s: power %v at default Tol, %v at Tol 1e-13 (relative error %.2g)",
							m, damping, init, am.name, got.power, ref.power, rel)
					}
				}
				t.Logf("%v damping=%v %v: worst relative power error %.2g", m, damping, init, cfgWorst)
				worst = max(worst, cfgWorst)
			}
		}
	}
	mean := float64(sweeps) / float64(solves)
	t.Logf("%d solves: worst relative power error %.2g, mean sweeps %.2f", solves, worst, mean)
	if mean > maxMeanSweeps {
		t.Errorf("mean sweeps per solve %.2f exceeds %v", mean, maxMeanSweeps)
	}
}

type solvedPower struct {
	power      float64
	iterations int
}

func powerOf(t *testing.T, am accuracyModel, opts mva.Options, ws *mva.Workspace) solvedPower {
	t.Helper()
	opts.Workspace = ws
	sol, err := mva.Approximate(am.net, opts)
	if err != nil {
		t.Fatalf("%s: %v", am.name, err)
	}
	m, err := power.FromSolution(am.net, sol, am.excluded)
	if err != nil {
		t.Fatal(err)
	}
	return solvedPower{m.Power, sol.Iterations}
}
