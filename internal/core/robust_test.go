package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/topo"
)

// twoScenarioSet is a crafted pair pulling the optimum in opposite
// directions: the likely scenario is the nominal network, the unlikely
// one cuts the shared Winnipeg–Toronto trunk to a fraction of its
// capacity (where much smaller windows are optimal).
func twoScenarioSet(trunkFactor float64) []Scenario {
	capScale := []float64{1, 1, 1, 1, 1, 1, 1}
	capScale[topo.ChWT] = trunkFactor
	return []Scenario{
		{Name: "nominal", Weight: 0.95},
		{Name: "trunk-cut", CapacityScale: capScale, Weight: 0.05},
	}
}

func TestScenarioValidateAndApply(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	sc := Scenario{
		Name:          "half-trunk",
		CapacityScale: []float64{1, 0.5, 1, 1, 1, 1, 1},
		RateScale:     []float64{2, 1},
	}
	p, err := sc.Apply(n)
	if err != nil {
		t.Fatal(err)
	}
	if p.Channels[topo.ChWT].Capacity != 0.5*n.Channels[topo.ChWT].Capacity {
		t.Errorf("trunk capacity not halved: %v", p.Channels[topo.ChWT].Capacity)
	}
	if p.Classes[0].Rate != 2*n.Classes[0].Rate {
		t.Errorf("class-0 rate not doubled: %v", p.Classes[0].Rate)
	}
	if p.Classes[1].Rate != n.Classes[1].Rate || p.Channels[0].Capacity != n.Channels[0].Capacity {
		t.Error("unscaled entries changed")
	}
	if !strings.HasSuffix(p.Name, "/half-trunk") {
		t.Errorf("perturbed name %q", p.Name)
	}
	// The original is untouched.
	if n.Channels[topo.ChWT].Capacity != 50000 {
		t.Errorf("Apply mutated the input network: %v", n.Channels[topo.ChWT].Capacity)
	}

	bad := []Scenario{
		{Name: "short", CapacityScale: []float64{0.5}},
		{Name: "boost", CapacityScale: []float64{1.5, 1, 1, 1, 1, 1, 1}},
		{Name: "zero", CapacityScale: []float64{0, 1, 1, 1, 1, 1, 1}},
		{Name: "rate0", RateScale: []float64{0, 1}},
		{Name: "rateinf", RateScale: []float64{math.Inf(1), 1}},
		{Name: "badweight", Weight: math.NaN()},
	}
	for _, sc := range bad {
		if _, err := sc.Apply(n); err == nil {
			t.Errorf("scenario %q accepted", sc.Name)
		}
	}
}

func TestScenarioFaultSpec(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	sc := Scenario{
		Name:          "mixed",
		CapacityScale: []float64{1, 0.5, 1, 1, 1, 1, 1},
		RateScale:     []float64{2, 1},
	}
	f, err := sc.FaultSpec(n, 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	// Factor-1 entries are skipped: one degradation, one surge.
	if len(f.Degradations) != 1 || f.Degradations[0].Channel != topo.ChWT || f.Degradations[0].Factor != 0.5 {
		t.Errorf("degradations %+v", f.Degradations)
	}
	if len(f.Surges) != 1 || f.Surges[0].Class != 0 || f.Surges[0].Factor != 2 {
		t.Errorf("surges %+v", f.Surges)
	}
	if f.Degradations[0].Start != 100 || f.Surges[0].End != 900 {
		t.Errorf("window not propagated: %+v %+v", f.Degradations[0], f.Surges[0])
	}
	if err := f.Validate(n); err != nil {
		t.Errorf("generated spec invalid: %v", err)
	}
	if _, err := sc.FaultSpec(n, 900, 100); err == nil {
		t.Error("inverted fault window accepted")
	}
	// An all-ones scenario yields an empty (harmless) spec.
	empty := Scenario{Name: "idle"}
	f, err = empty.FaultSpec(n, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Outages)+len(f.Degradations)+len(f.Surges) != 0 {
		t.Errorf("all-ones scenario produced faults: %+v", f)
	}
}

func TestParseScenarios(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	data := []byte(`{"scenarios": [
		{"name": "nominal", "weight": 0.6},
		{"name": "trunk-degraded", "capacity_scale": {"WT": 0.5}, "weight": 0.2},
		{"name": "class1-surge", "rate_scale": {"class1": 2}, "weight": 0.2}
	]}`)
	scs, err := ParseScenarios(data, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("parsed %d scenarios", len(scs))
	}
	if scs[0].CapacityScale != nil || scs[0].RateScale != nil {
		t.Errorf("nominal scenario not identity: %+v", scs[0])
	}
	if scs[1].CapacityScale[topo.ChWT] != 0.5 || scs[1].CapacityScale[topo.ChEW] != 1 {
		t.Errorf("capacity scales %v", scs[1].CapacityScale)
	}
	if scs[2].RateScale[0] != 2 || scs[2].RateScale[1] != 1 {
		t.Errorf("rate scales %v", scs[2].RateScale)
	}

	if _, err := ParseScenarios([]byte(`{"scenarios": []}`), n); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := ParseScenarios([]byte(`{"scenarios": [{"capacity_scale": {"nosuch": 0.5}}]}`), n); err == nil || !strings.Contains(err.Error(), `unknown channel "nosuch"`) {
		t.Errorf("unknown channel error: %v", err)
	}
	if _, err := ParseScenarios([]byte(`{"scenarios": [{"rate_scale": {"nosuch": 2}}]}`), n); err == nil || !strings.Contains(err.Error(), `unknown class "nosuch"`) {
		t.Errorf("unknown class error: %v", err)
	}
	if _, err := ParseScenarios([]byte(`{"scenarios": [{"name": "bad", "capacity_scale": {"WT": 1.5}}]}`), n); err == nil {
		t.Error("out-of-range factor accepted")
	}
}

// TestDimensionRobustMinimaxVsWeighted: on a scenario pair whose likely
// member wants large windows and whose unlikely member wants small ones,
// the two criteria pick different windows, and each wins on its own
// criterion: minimax has the better worst-scenario power, weighted the
// better weighted-mean power.
func TestDimensionRobustMinimaxVsWeighted(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.25)
	mm, err := DimensionRobust(n, scenarios, RobustMinimax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := DimensionRobust(n, scenarios, RobustWeighted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mm.Windows.Equal(wt.Windows) {
		t.Fatalf("criteria agree on %v; the scenario pair is not discriminating", mm.Windows)
	}
	if mm.WorstPower < wt.WorstPower {
		t.Errorf("minimax worst power %v below weighted's %v", mm.WorstPower, wt.WorstPower)
	}
	if wt.WeightedPower < mm.WeightedPower {
		t.Errorf("weighted mean power %v below minimax's %v", wt.WeightedPower, mm.WeightedPower)
	}
	// Bookkeeping: the worst scenario under the trunk cut is the trunk cut.
	if mm.WorstScenario != 1 {
		t.Errorf("worst scenario %d, want the trunk cut", mm.WorstScenario)
	}
	if len(mm.ScenarioPower) != 2 || len(mm.PerScenario) != 2 {
		t.Fatalf("per-scenario columns: %v, %v", mm.ScenarioPower, mm.PerScenario)
	}
	if mm.WorstPower != mm.ScenarioPower[mm.WorstScenario] {
		t.Errorf("WorstPower %v != ScenarioPower[%d] = %v", mm.WorstPower, mm.WorstScenario, mm.ScenarioPower[mm.WorstScenario])
	}
}

// TestDimensionRobustSeededBeatsNominalWorst is the acceptance
// inequality: seeded from the nominal-optimal vector, the minimax result
// protects the worst scenario at least as well as the nominal choice.
func TestDimensionRobustSeededBeatsNominalWorst(t *testing.T) {
	n := topo.Canada4Class(20, 20, 20, 40)
	capScale := []float64{1, 1, 1, 1, 1, 1, 1}
	capScale[topo.ChWT] = 0.5
	scenarios := []Scenario{
		{Name: "nominal", Weight: 0.6},
		{Name: "trunk-degraded", CapacityScale: capScale, Weight: 0.2},
		{Name: "class4-surge", RateScale: []float64{1, 1, 1, 2}, Weight: 0.2},
	}
	nominal, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nominalPowers, err := EvaluateScenarios(n, scenarios, nominal.Windows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nominalWorst := math.Inf(1)
	for _, p := range nominalPowers {
		if p < nominalWorst {
			nominalWorst = p
		}
	}
	robust, err := DimensionRobust(n, scenarios, RobustMinimax, Options{InitialWindows: nominal.Windows})
	if err != nil {
		t.Fatal(err)
	}
	if robust.WorstPower < nominalWorst {
		t.Errorf("robust worst power %v below nominal-optimal's worst %v", robust.WorstPower, nominalWorst)
	}
}

// TestDimensionRobustWorkersDeterministic: the speculative-parallel
// search over scenario engines is bit-identical to the serial run.
func TestDimensionRobustWorkersDeterministic(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	scenarios := twoScenarioSet(0.4)
	serial, err := DimensionRobust(n, scenarios, RobustMinimax, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DimensionRobust(n, scenarios, RobustMinimax, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Windows.Equal(parallel.Windows) {
		t.Fatalf("worker count changed the optimum: %v vs %v", serial.Windows, parallel.Windows)
	}
	if serial.Search.BestValue != parallel.Search.BestValue {
		t.Fatalf("worker count changed the criterion value: %v vs %v", serial.Search.BestValue, parallel.Search.BestValue)
	}
	for i := range serial.ScenarioPower {
		if serial.ScenarioPower[i] != parallel.ScenarioPower[i] {
			t.Errorf("scenario %d power differs: %v vs %v", i, serial.ScenarioPower[i], parallel.ScenarioPower[i])
		}
	}
}

// TestDimensionRobustCancelledBestSoFar: cancellation mid-search returns
// the best committed vector with full per-scenario metrics plus the
// wrapped context error, mirroring Dimension's contract.
func TestDimensionRobustCancelledBestSoFar(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{Context: &countdownCtx{remaining: 8}})
	if err == nil {
		t.Fatal("cancelled robust dimensioning returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Windows == nil {
		t.Fatalf("no best-so-far result: %+v", res)
	}
	if len(res.PerScenario) != 2 || res.PerScenario[0] == nil || res.WorstPower <= 0 {
		t.Fatalf("best-so-far point lacks scenario metrics: %+v", res)
	}
	// Cancellation before any evaluation is terminal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = DimensionRobust(n, scenarios, RobustMinimax, Options{Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("result %+v from a never-started search", res)
	}
}

// TestDimensionRobustSingleNominalMatchesDimension: with one identity
// scenario both criteria reduce to plain Dimension.
func TestDimensionRobustSingleNominalMatchesDimension(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	plain, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []RobustKind{RobustMinimax, RobustWeighted} {
		res, err := DimensionRobust(n, []Scenario{{Name: "nominal"}}, kind, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Windows.Equal(plain.Windows) {
			t.Errorf("%v: robust windows %v vs plain %v", kind, res.Windows, plain.Windows)
		}
		// Same windows; the power values may differ within the AMVA
		// fixed-point tolerance (warm vs cold final evaluation).
		if math.Abs(res.WorstPower-plain.Metrics.Power) > 1e-4*plain.Metrics.Power {
			t.Errorf("%v: worst power %v vs plain %v", kind, res.WorstPower, plain.Metrics.Power)
		}
	}
}

// TestDimensionRobustExhaustive: the exhaustive search path works and
// agrees with the pattern search on a small box.
func TestDimensionRobustExhaustive(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	scenarios := twoScenarioSet(0.4)
	opts := Options{MaxWindow: 8}
	pat, err := DimensionRobust(n, scenarios, RobustMinimax, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Search = ExhaustiveSearch
	opts.Workers = 4
	exh, err := DimensionRobust(n, scenarios, RobustMinimax, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both optima go through one identical (cold) evaluation: the searches'
	// own values come from differently seeded solves, which agree only to
	// the fixed-point tolerance.
	worst := func(w numeric.IntVector) float64 {
		powers, err := EvaluateScenarios(n, scenarios, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Min(powers)
	}
	if e, p := worst(exh.Windows), worst(pat.Windows); e < p {
		t.Errorf("exhaustive windows %v worst power %v below pattern windows %v's %v", exh.Windows, e, pat.Windows, p)
	}
}

func TestDimensionRobustErrors(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	if _, err := DimensionRobust(n, nil, RobustMinimax, Options{}); err == nil {
		t.Error("empty scenario set accepted")
	}
	if _, err := DimensionRobust(n, []Scenario{{Name: "x"}}, RobustKind(9), Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := DimensionRobust(n, []Scenario{{Name: "x"}}, RobustMinimax, Options{BufferLimits: []int{1, 1, 1, 1, 1, 1}}); err == nil {
		t.Error("BufferLimits accepted")
	}
	if _, err := DimensionRobust(n, []Scenario{{Name: "bad", RateScale: []float64{0, 1}}}, RobustMinimax, Options{}); err == nil {
		t.Error("invalid scenario accepted")
	}
	bad := topo.Canada2Class(20, 20)
	bad.Channels[0].Capacity = -1
	if _, err := DimensionRobust(bad, []Scenario{{Name: "x"}}, RobustMinimax, Options{}); err == nil {
		t.Error("invalid network accepted")
	}
	if _, err := DimensionRobust(n, []Scenario{{Name: "x"}}, RobustMinimax, Options{InitialWindows: numeric.IntVector{1}}); err == nil {
		t.Error("short initial vector accepted")
	}
}

func TestRobustKindStrings(t *testing.T) {
	if RobustMinimax.String() != "minmax" || RobustWeighted.String() != "weighted" {
		t.Errorf("kind strings: %v, %v", RobustMinimax, RobustWeighted)
	}
	if !strings.Contains(RobustKind(9).String(), "9") {
		t.Errorf("unknown kind string %v", RobustKind(9))
	}
}
