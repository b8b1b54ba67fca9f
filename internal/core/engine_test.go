package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/topo"
)

func TestEngineMatchesEvaluate(t *testing.T) {
	n := topo.Canada2Class(15, 20)
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalSchweitzerMVA, EvalLinearizerMVA, EvalExactMVA} {
		opts := Options{Evaluator: ev}
		eng, err := NewEngine(n, opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		for _, w := range []numeric.IntVector{{1, 1}, {3, 2}, {2, 5}, {3, 2}} {
			legacy, err := Evaluate(n, w, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", ev, w, err)
			}
			got, err := eng.Evaluate(w)
			if err != nil {
				t.Fatalf("%v %v: %v", ev, w, err)
			}
			// With no committed warm seed the engine replays the legacy
			// path (workspace and prevalidation are bit-faithful), so the
			// metrics must agree exactly.
			if got.Power != legacy.Power || got.Throughput != legacy.Throughput || got.Delay != legacy.Delay {
				t.Errorf("%v %v: engine (P=%v, T=%v, D=%v) vs legacy (P=%v, T=%v, D=%v)",
					ev, w, got.Power, got.Throughput, got.Delay, legacy.Power, legacy.Throughput, legacy.Delay)
			}
			v, err := eng.ObjectiveValue(w, ObjNetworkPower)
			if err != nil {
				t.Fatal(err)
			}
			if v != objectiveValue(legacy, ObjNetworkPower) {
				t.Errorf("%v %v: objective %v vs legacy %v", ev, w, v, objectiveValue(legacy, ObjNetworkPower))
			}
		}
	}
}

func TestEngineCommitWarmStaysAtFixedPoint(t *testing.T) {
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Evaluate(numeric.IntVector{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Commit a neighbour and re-evaluate: the warm-seeded solve must land
	// on the same fixed point to solver tolerance.
	eng.Commit(numeric.IntVector{2, 3})
	warm, err := eng.Evaluate(numeric.IntVector{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Power-cold.Power) > 1e-4*cold.Power {
		t.Errorf("warm power %v drifted from cold %v", warm.Power, cold.Power)
	}
	// ResetWarm restores the exact cold values.
	eng.ResetWarm()
	again, err := eng.Evaluate(numeric.IntVector{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if again.Power != cold.Power {
		t.Errorf("after ResetWarm power %v, want cold %v", again.Power, cold.Power)
	}
}

func TestEngineRejectsBadWindows(t *testing.T) {
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(numeric.IntVector{1}); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := eng.Evaluate(numeric.IntVector{-1, 2}); err == nil {
		t.Error("expected negative-window error")
	}
}

// raceEnabled is set by race_test.go; the race detector instruments
// allocations, so counting them is only meaningful without it.
var raceEnabled bool

// TestEngineConcurrentBorrowers: goroutines evaluating one engine at once
// each borrow their own state from the free list and get the serial
// answers to the bit, and the free list holds no more states than there
// were concurrent borrowers.
func TestEngineConcurrentBorrowers(t *testing.T) {
	n, err := topo.Mesh(24, 24, 12, topo.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 12
	cands := make([]numeric.IntVector, goroutines*perG)
	s := rng.New(5)
	for k := range cands {
		cands[k] = numeric.NewIntVector(len(n.Classes))
		for r := range cands[k] {
			cands[k][r] = 1 + s.Intn(6)
		}
	}
	want := make([]float64, len(cands))
	for k, w := range cands {
		if want[k], err = eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, len(cands))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(cands); k += goroutines {
				v, err := eng.ObjectiveValue(cands[k], ObjNetworkPower)
				if err != nil {
					t.Error(err)
					return
				}
				got[k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := range cands {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("%v: concurrent objective %v, serial %v", cands[k], got[k], want[k])
		}
	}
	if free := len(eng.free); free < 1 || free > goroutines {
		t.Errorf("free list holds %d states after %d concurrent borrowers", free, goroutines)
	}
}

func TestEngineObjectiveValueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := numeric.IntVector{3, 3}
	if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
			t.Fatal(err)
		}
	})
	// The hot path reuses free-listed model copies, solver workspaces and
	// metrics slices: a steady-state candidate allocates nothing.
	if allocs > 0 {
		t.Errorf("ObjectiveValue allocates %v per call in steady state", allocs)
	}
}

func dimensionTrajectory(t *testing.T, opts Options, s1, s2, s3, s4 float64, fourClass bool) *Result {
	t.Helper()
	var res *Result
	var err error
	if fourClass {
		res, err = Dimension(topo.Canada4Class(s1, s2, s3, s4), opts)
	} else {
		res, err = Dimension(topo.Canada2Class(s1, s2), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDimensionParallelPatternMatchesSerial(t *testing.T) {
	cases := []struct {
		fourClass      bool
		s1, s2, s3, s4 float64
	}{
		{false, 15, 15, 0, 0},
		{false, 7, 18, 0, 0},
		{true, 9.957, 4.419, 7.656, 7.968},
		{true, 20, 20, 20, 40},
	}
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalSchweitzerMVA} {
		for _, c := range cases {
			serial := dimensionTrajectory(t, Options{Evaluator: ev}, c.s1, c.s2, c.s3, c.s4, c.fourClass)
			for _, workers := range []int{2, 4, 8} {
				par := dimensionTrajectory(t, Options{Evaluator: ev, Workers: workers}, c.s1, c.s2, c.s3, c.s4, c.fourClass)
				if !par.Windows.Equal(serial.Windows) {
					t.Errorf("%v %+v workers=%d: windows %v vs serial %v", ev, c, workers, par.Windows, serial.Windows)
				}
				if par.Search.BestValue != serial.Search.BestValue {
					t.Errorf("%v %+v workers=%d: best value %v vs %v", ev, c, workers, par.Search.BestValue, serial.Search.BestValue)
				}
				if par.Search.Evaluations != serial.Search.Evaluations || par.Search.CacheHits != serial.Search.CacheHits {
					t.Errorf("%v %+v workers=%d: evals/hits %d/%d vs serial %d/%d", ev, c, workers,
						par.Search.Evaluations, par.Search.CacheHits, serial.Search.Evaluations, serial.Search.CacheHits)
				}
				if len(par.Search.BasePoints) != len(serial.Search.BasePoints) {
					t.Fatalf("%v %+v workers=%d: %d base points vs %d", ev, c, workers,
						len(par.Search.BasePoints), len(serial.Search.BasePoints))
				}
				for i := range serial.Search.BasePoints {
					if !par.Search.BasePoints[i].Equal(serial.Search.BasePoints[i]) {
						t.Errorf("%v %+v workers=%d: base point %d = %v vs %v", ev, c, workers, i,
							par.Search.BasePoints[i], serial.Search.BasePoints[i])
					}
				}
			}
		}
	}
}

func TestDimensionWarmMatchesColdWindows(t *testing.T) {
	// Warm-started candidate values agree with cold ones to solver
	// tolerance, so the dimensioned windows must come out identical.
	for _, s := range []float64{12.5, 20, 37.5, 75} {
		n := topo.Canada2Class(s, s)
		warm, err := Dimension(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Dimension(n, Options{ColdStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Windows.Equal(cold.Windows) {
			t.Errorf("S=%v: warm windows %v vs cold %v", s, warm.Windows, cold.Windows)
		}
		if math.Abs(warm.Metrics.Power-cold.Metrics.Power) > 1e-6*cold.Metrics.Power {
			t.Errorf("S=%v: warm power %v vs cold %v", s, warm.Metrics.Power, cold.Metrics.Power)
		}
	}
}

func BenchmarkEvaluateEngine(b *testing.B) {
	n := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	w := numeric.IntVector{4, 4, 3, 2}
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Evaluate(n, w, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng, err := NewEngine(n, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEngineRouteMetricsMatchFromSolution: the engine derives each
// candidate's metrics from its compiled routes in O(route length); they
// must equal power.FromSolution's dense walk over the same solution bit
// for bit, for every evaluator the engine serves, warm-seeded solves
// included.
func TestEngineRouteMetricsMatchFromSolution(t *testing.T) {
	mesh, err := topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clos, err := topo.Clos(12, 6, 48, topo.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	small, err := topo.Mesh(6, 3, 3, topo.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	approx := []Options{
		{Evaluator: EvalSigmaMVA},
		{Evaluator: EvalSchweitzerMVA},
		{Evaluator: EvalLinearizerMVA},
	}
	exact := append(approx,
		Options{Evaluator: EvalExactMVA},
		Options{Evaluator: EvalExactMVA, ExactEngine: true})
	cases := []struct {
		name  string
		net   *netmodel.Network
		confs []Options
	}{
		{"canada4", topo.Canada4Class(9.957, 4.419, 7.656, 7.968), exact},
		{"mesh-small", small, exact},
		{"mesh", mesh, approx},
		{"clos", clos, approx},
	}
	for _, c := range cases {
		nCls := len(c.net.Classes)
		ones := numeric.NewIntVector(nCls)
		for i := range ones {
			ones[i] = 1
		}
		_, excluded, err := c.net.ClosedModel(ones)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range c.confs {
			eng, err := NewEngine(c.net, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := eng.borrow()
			s := rng.New(11)
			for step := 0; step < 3; step++ {
				w := numeric.NewIntVector(nCls)
				for r := range w {
					w[r] = 1 + s.Intn(4)
				}
				tag := fmt.Sprintf("%s %v exact-engine=%v %v", c.name, opts.Evaluator, opts.ExactEngine, w)
				sol, _, err := eng.solve(st, w)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := power.FromSolution(&st.model, sol, excluded)
				if err != nil {
					t.Fatal(err)
				}
				var got power.Metrics
				eng.routes.MetricsInto(&got, sol)
				same := math.Float64bits(got.Power) == math.Float64bits(want.Power) &&
					math.Float64bits(got.Delay) == math.Float64bits(want.Delay) &&
					math.Float64bits(got.Throughput) == math.Float64bits(want.Throughput)
				for r := range want.ClassDelay {
					same = same && math.Float64bits(got.ClassDelay[r]) == math.Float64bits(want.ClassDelay[r]) &&
						math.Float64bits(got.ClassThroughput[r]) == math.Float64bits(want.ClassThroughput[r])
				}
				if !same {
					t.Errorf("%s: route metrics %+v, FromSolution %+v", tag, got, *want)
				}
				eng.Commit(w)
			}
			eng.release(st)
		}
	}
}
