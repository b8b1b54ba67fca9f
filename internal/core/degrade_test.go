package core

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/topo"
)

func TestScenarioHealthQuorum(t *testing.T) {
	h := newScenarioHealth([]string{"a", "b", "c"}, 2, 0)
	if err := h.degrade(1, "broken"); err != nil {
		t.Fatal(err)
	}
	if h.isActive(1) || !h.isActive(0) || !h.isActive(2) {
		t.Fatal("wrong scenario degraded")
	}
	// Degrading again is idempotent.
	if err := h.degrade(1, "again"); err != nil {
		t.Fatal(err)
	}
	// One more degradation would leave 1 < quorum 2: refused, scenario
	// stays active.
	if err := h.degrade(2, "also broken"); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("quorum break not refused: %v", err)
	}
	if !h.isActive(2) {
		t.Fatal("refused degradation still deactivated the scenario")
	}
	d := h.degraded()
	if len(d) != 1 || d[0].Index != 1 || d[0].Name != "b" || d[0].Reason != "broken" {
		t.Fatalf("degraded list: %+v", d)
	}
}

func TestScenarioHealthStrikes(t *testing.T) {
	h := newScenarioHealth([]string{"a", "b"}, 1, 3)
	for i := 0; i < 2; i++ {
		if err := h.strike(0, "did not converge"); err != nil {
			t.Fatal(err)
		}
		if !h.isActive(0) {
			t.Fatalf("degraded after %d strikes, threshold is 3", i+1)
		}
	}
	if err := h.strike(0, "did not converge"); err != nil {
		t.Fatal(err)
	}
	if h.isActive(0) {
		t.Fatal("still active after 3 strikes")
	}
	d := h.degraded()
	if len(d) != 1 || !strings.Contains(d[0].Reason, "3 non-converged") {
		t.Fatalf("strike-out reason: %+v", d)
	}
	// Disabled strike counting never degrades.
	h2 := newScenarioHealth([]string{"a"}, 1, 0)
	for i := 0; i < 100; i++ {
		if err := h2.strike(0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if !h2.isActive(0) {
		t.Fatal("DegradeAfter=0 degraded a scenario")
	}
}

func TestScenarioHealthAuxRoundTrip(t *testing.T) {
	h := newScenarioHealth([]string{"a", "b", "c"}, 1, 5)
	if err := h.degrade(2, "dead"); err != nil {
		t.Fatal(err)
	}
	if err := h.strike(0, "slow"); err != nil {
		t.Fatal(err)
	}
	aux := h.snapshotAux()

	restored := newScenarioHealth([]string{"a", "b", "c"}, 1, 5)
	if err := restored.restoreAux(aux); err != nil {
		t.Fatal(err)
	}
	if restored.isActive(2) || !restored.isActive(0) || !restored.isActive(1) {
		t.Fatal("active set not restored")
	}
	if restored.strikes[0] != 1 {
		t.Errorf("strikes not restored: %v", restored.strikes)
	}
	d := restored.degraded()
	if len(d) != 1 || d[0].Reason != "dead" {
		t.Fatalf("reasons not restored: %+v", d)
	}

	// Empty Aux (pre-commit checkpoint, or a non-robust one) is a no-op.
	fresh := newScenarioHealth([]string{"a"}, 1, 0)
	if err := fresh.restoreAux(nil); err != nil {
		t.Fatal(err)
	}
	if !fresh.isActive(0) {
		t.Fatal("empty aux changed state")
	}
	// Wrong scenario count is rejected.
	if err := fresh.restoreAux(aux); err == nil {
		t.Error("aux for 3 scenarios restored into 1")
	}
	// A restored state below the quorum is rejected.
	strict := newScenarioHealth([]string{"a", "b", "c"}, 3, 0)
	if err := strict.restoreAux(aux); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Errorf("below-quorum aux accepted: %v", err)
	}
	// Garbage is rejected.
	if err := fresh.restoreAux(json.RawMessage(`{"active": "yes"}`)); err == nil {
		t.Error("malformed aux accepted")
	}
}

// TestDimensionWatchdogRescuesStalls: an absurdly small EvalTimeout makes
// every fixed-point solve trip the watchdog; the fallback chain's exact
// tier (iteration-free, not subject to the deadline) still answers every
// candidate, so the run completes with trips and fallbacks on record
// instead of hanging or dying.
func TestDimensionWatchdogRescuesStalls(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	res, err := Dimension(n, Options{EvalTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.WatchdogTrips == 0 {
		t.Error("1ns allowance tripped no watchdog")
	}
	if res.Fallbacks[TierExact] == 0 {
		t.Errorf("no candidate reached the exact tier: %v", res.Fallbacks)
	}
	if res.Metrics == nil || res.Metrics.Power <= 0 {
		t.Fatalf("no usable result under the watchdog: %+v", res.Metrics)
	}
}

// TestDimensionRobustWatchdogQuorum: with the fallback chain disabled every
// watchdog trip is a post-fallback convergence failure; one strike degrades
// the first scenario it hits, and with the quorum at the full set that
// degradation is refused — the run aborts with the quorum error instead of
// optimising against a hollowed-out set.
func TestDimensionRobustWatchdogQuorum(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	_, err := DimensionRobust(n, scenarios, RobustMinimax, Options{
		EvalTimeout:     time.Nanosecond,
		DisableFallback: true,
		DegradeAfter:    1,
		MinScenarios:    2,
	})
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("want quorum error, got %v", err)
	}
	// A quorum larger than the scenario set is rejected up front.
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, Options{MinScenarios: 3}); err == nil {
		t.Error("quorum 3 of 2 scenarios accepted")
	}
}

// TestDimensionRobustSelectiveDegradation: a live end-to-end run in which
// exactly one scenario stops converging mid-search. The lightly-cut trunk
// (0.14) needs more fixed-point sweeps than the deeply-cut one (0.10) at
// some later candidate of the search. The sweep budget is derived from
// the two scenarios' measured sweep counts along the unbounded search:
// enough for every deep-cut solve, including the final cold evaluation
// at the optimum, and for the shallow cut's start point, but short of
// the shallow cut's hardest candidate. With the fallback
// chain off and DegradeAfter 1, the failing scenario is excluded with a
// recorded reason and the search still returns a usable optimum over the
// survivor.
func TestDimensionRobustSelectiveDegradation(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	mk := func(name string, cut float64) Scenario {
		sc := Scenario{Name: name, CapacityScale: ones(len(n.Channels))}
		sc.CapacityScale[topo.ChWT] = cut
		return sc
	}
	scenarios := []Scenario{mk("deep-cut", 0.10), mk("shallow-cut", 0.14)}
	sweeps, final := robustSweepCounts(t, n, scenarios)
	budget := max(slices.Max(sweeps[0]), final[0], sweeps[1][0])
	if budget >= slices.Max(sweeps[1]) {
		t.Fatalf("no sweep budget separates the scenarios: deep-cut %v then %d, shallow-cut %v",
			sweeps[0], final[0], sweeps[1])
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{
		DisableFallback: true,
		DegradeAfter:    1,
		MinScenarios:    1,
		MVA:             mva.Options{MaxIter: budget},
	})
	if err != nil {
		t.Fatalf("DimensionRobust: %v", err)
	}
	if len(res.Degraded) != 1 {
		t.Fatalf("want exactly one degraded scenario, got %+v", res.Degraded)
	}
	d := res.Degraded[0]
	if d.Index != 1 || d.Name != "shallow-cut" {
		t.Errorf("wrong scenario degraded: %+v", d)
	}
	if !strings.Contains(d.Reason, "non-converged") {
		t.Errorf("reason does not record the convergence failure: %q", d.Reason)
	}
	// The degraded scenario is absent from the final report...
	if res.PerScenario[1] != nil {
		t.Errorf("degraded scenario has final metrics: %+v", res.PerScenario[1])
	}
	if !math.IsNaN(res.ScenarioPower[1]) {
		t.Errorf("degraded scenario power = %v, want NaN", res.ScenarioPower[1])
	}
	// ...and the survivor carries the optimum.
	if res.WorstScenario != 0 {
		t.Errorf("worst scenario = %d, want 0", res.WorstScenario)
	}
	if res.PerScenario[0] == nil || res.PerScenario[0].Power <= 0 {
		t.Errorf("surviving scenario has no usable metrics: %+v", res.PerScenario[0])
	}
	if len(res.Windows) != len(n.Classes) {
		t.Errorf("windows %v", res.Windows)
	}
}

// robustSweepCounts replays DimensionRobust's unbounded minimax search
// over the scenarios (serial, fallback chain off). It returns, per
// scenario, the fixed-point sweeps of each evaluated candidate in
// evaluation order (element 0 is the start point's cold solve) and of
// the final cold evaluation at the optimum.
func robustSweepCounts(t *testing.T, n *netmodel.Network, scenarios []Scenario) (search [][]int, final []int) {
	t.Helper()
	engines := make([]*Engine, len(scenarios))
	for i := range scenarios {
		p, err := scenarios[i].Apply(n)
		if err != nil {
			t.Fatal(err)
		}
		if engines[i], err = NewEngine(p, Options{DisableFallback: true}); err != nil {
			t.Fatal(err)
		}
	}
	search = make([][]int, len(scenarios))
	objective := func(x numeric.IntVector) (float64, error) {
		worst := 0.0
		for i, eng := range engines {
			st := eng.pool.Get().(*evalState)
			sol, _, err := eng.solve(st, x)
			if err != nil {
				eng.pool.Put(st)
				return 0, err
			}
			search[i] = append(search[i], sol.Iterations)
			eng.routes.MetricsInto(&st.metrics, sol)
			worst = max(worst, objectiveValue(&st.metrics, ObjNetworkPower))
			eng.pool.Put(st)
		}
		return worst, nil
	}
	lo, hi := numeric.NewIntVector(len(n.Classes)), numeric.NewIntVector(len(n.Classes))
	for i := range lo {
		lo[i], hi[i] = 1, 64
	}
	res, err := pattern.Search(objective, n.HopVector(), pattern.Options{
		Lo: lo, Hi: hi,
		OnCommit: func(x numeric.IntVector, _ float64) {
			for _, eng := range engines {
				eng.Commit(x)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		eng.ResetWarm()
	}
	if _, err := objective(res.Best); err != nil {
		t.Fatal(err)
	}
	for i := range search {
		last := len(search[i]) - 1
		final = append(final, search[i][last])
		search[i] = search[i][:last]
	}
	return search, final
}
