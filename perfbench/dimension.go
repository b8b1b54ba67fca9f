package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/topo"
)

// The dimension-mesh workload: serial core.Dimension with the thesis
// defaults, one fresh 64-node random mesh after another — the windim path,
// where pattern search, the evaluation engine and the σ-heuristic MVA do
// nearly all the work and nothing touches the disk or the network.
const (
	meshNodes   = 64
	meshExtra   = 64
	meshClasses = 32
	// dimPool problems are generated at set-up; the closed loop takes them
	// in order and wraps around if it outruns the pool.
	dimPool = 800
	// setupReps is how often dimension-mesh and windimd-mixed repeat
	// their set-up; setup_s is the median.
	setupReps = 9
	// checkTol is the relative tolerance of the analytic correctness gates.
	checkTol = 1e-6
	// maxWindow is core's default window bound.
	maxWindow = 64
)

type dimProblem struct {
	seed uint64
	net  *netmodel.Network
}

// meshProblems generates k mesh networks, the i-th seeded by the i-th
// draw of a stream seeded by seed.
func meshProblems(seed uint64, k int) ([]dimProblem, error) {
	src := rng.New(seed)
	out := make([]dimProblem, k)
	for i := range out {
		s := src.Uint64()
		n, err := topo.Mesh(meshNodes, meshExtra, meshClasses, topo.GenConfig{Seed: s})
		if err != nil {
			return nil, fmt.Errorf("mesh problem %d (seed %d): %w", i, s, err)
		}
		out[i] = dimProblem{seed: s, net: n}
	}
	return out, nil
}

func runDimension(e *env) (*e2e, error) {
	res := &e2e{}
	var problems []dimProblem
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := meshProblems(e.seed, dimPool)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
		problems = p
	}
	var outs []dimOutcome
	start := time.Now()
	deadline := start.Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		p := problems[i%len(problems)]
		res.attempted++
		t0 := time.Now()
		r, err := core.Dimension(p.net, core.Options{Workers: 1})
		d := time.Since(t0)
		if err != nil {
			res.fail("problem seed %d: %v", p.seed, err)
			continue
		}
		res.completed++
		res.lat = append(res.lat, ms(d))
		outs = append(outs, dimOutcome{p, r})
	}
	if err := res.closeWindow(start); err != nil {
		return nil, err
	}

	gateDimensions(outs, &res.tally)
	return res, nil
}

type dimOutcome struct {
	p dimProblem
	r *core.Result
}

// gateDimensions runs checkDimension on every outcome, after the measured
// window and on both cores, and counts each failure.
func gateDimensions(outs []dimOutcome, t *tally) {
	errs := make([]error, len(outs))
	parallelFor(len(outs), func(i int) { errs[i] = checkDimension(outs[i].p.net, outs[i].r) })
	for i, err := range errs {
		if err != nil {
			t.fail("problem seed %d: %v", outs[i].p.seed, err)
		}
	}
}

// checkDimension is the dimension-mesh correctness gate: a cold
// core.Evaluate at the returned windows reproduces the reported power, and
// no unit-step neighbour inside [1, maxWindow] has more power.
func checkDimension(n *netmodel.Network, r *core.Result) error {
	m, err := core.Evaluate(n, r.Windows, core.Options{})
	if err != nil {
		return fmt.Errorf("evaluating returned windows: %w", err)
	}
	if !relClose(m.Power, r.Metrics.Power, checkTol) {
		return fmt.Errorf("reported power %v, cold evaluation gives %v", r.Metrics.Power, m.Power)
	}
	// The neighbours are solved warm from the returned windows, which is
	// faster than cold and agrees with it far inside checkTol.
	eng, err := core.NewEngine(n, core.Options{})
	if err != nil {
		return err
	}
	eng.Commit(r.Windows)
	for c := range r.Windows {
		for _, d := range []int{-1, 1} {
			x := append(numeric.IntVector(nil), r.Windows...)
			x[c] += d
			if x[c] < 1 || x[c] > maxWindow {
				continue
			}
			nm, err := eng.Evaluate(x)
			if err != nil {
				return fmt.Errorf("evaluating neighbour %v: %w", x, err)
			}
			if nm.Power > m.Power*(1+checkTol) {
				return fmt.Errorf("neighbour %v has power %v > %v at the returned windows", x, nm.Power, m.Power)
			}
		}
	}
	return nil
}

// parallelFor runs f(0..n-1) on two goroutines, the benchmark's share of
// the machine.
func parallelFor(n int, f func(i int)) {
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
