package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/qnet"
	"repro/internal/topo"
)

// TestExactEngineMatchesDirect: the convolution oracle must reproduce the
// exact MVA recursion's metrics at every candidate of a small box, and the
// shared lattice must actually be serving (one engine, reused across
// candidates).
func TestExactEngineMatchesDirect(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	direct, err := NewEngine(n, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	engined, err := NewEngine(n, Options{Evaluator: EvalExactMVA, ExactEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	if engined.conv == nil {
		t.Fatal("ExactEngine option did not attach an oracle")
	}
	for w1 := 1; w1 <= 5; w1++ {
		for w2 := 1; w2 <= 5; w2++ {
			w := numeric.IntVector{w1, w2}
			md, err := direct.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			me, err := engined.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(me.Power-md.Power) / md.Power; rel > 1e-9 {
				t.Errorf("windows %v: engine power %v vs exact MVA %v (rel %v)", w, me.Power, md.Power, rel)
			}
			if rel := math.Abs(me.Delay-md.Delay) / md.Delay; rel > 1e-9 {
				t.Errorf("windows %v: engine delay %v vs exact MVA %v", w, me.Delay, md.Delay)
			}
		}
	}
	engined.conv.mu.Lock()
	built := engined.conv.eng != nil
	engined.conv.mu.Unlock()
	if !built {
		t.Error("oracle never built its shared lattice")
	}
}

// TestExactEngineDimension: a full WINDIM run with the engine lands on the
// same windows as the per-candidate exact recursion, for both searches.
func TestExactEngineDimension(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	for _, search := range []SearchKind{PatternSearch, ExhaustiveSearch} {
		base := Options{Evaluator: EvalExactMVA, Search: search, MaxWindow: 6}
		withEngine := base
		withEngine.ExactEngine = true
		rd, err := Dimension(n, base)
		if err != nil {
			t.Fatalf("%v direct: %v", search, err)
		}
		re, err := Dimension(n, withEngine)
		if err != nil {
			t.Fatalf("%v engine: %v", search, err)
		}
		if !rd.Windows.Equal(re.Windows) {
			t.Errorf("%v: engine windows %v vs direct %v", search, re.Windows, rd.Windows)
		}
		if rel := math.Abs(re.Metrics.Power-rd.Metrics.Power) / rd.Metrics.Power; rel > 1e-9 {
			t.Errorf("%v: engine power %v vs direct %v", search, re.Metrics.Power, rd.Metrics.Power)
		}
	}
}

// TestExactEngineParallelDeterministic: the engine-backed exhaustive and
// pattern searches must return the same result at any worker count (the
// oracle's answers are candidate-local, never box-history-dependent).
func TestExactEngineParallelDeterministic(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	var got []*Result
	for _, workers := range []int{1, 4} {
		res, err := Dimension(n, Options{
			Evaluator: EvalExactMVA, Search: PatternSearch,
			MaxWindow: 8, ExactEngine: true, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got = append(got, res)
	}
	if !got[0].Windows.Equal(got[1].Windows) {
		t.Errorf("serial windows %v vs parallel %v", got[0].Windows, got[1].Windows)
	}
	if got[0].Search.BestValue != got[1].Search.BestValue {
		t.Errorf("serial best value %v vs parallel %v", got[0].Search.BestValue, got[1].Search.BestValue)
	}
}

// TestExactEngineFallbackTier: with every iterative tier forced to fail,
// the exact rescue must come from the convolution oracle, tagged as such,
// and agree with the plain exact rescue.
func TestExactEngineFallbackTier(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	w := numeric.IntVector{4, 4}
	eng, err := NewEngine(n, Options{
		Evaluator:   EvalSchweitzerMVA,
		MVA:         mva.Options{MaxIter: 1},
		ExactEngine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, tier, err := eng.EvaluateWithTier(w)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	if tier != TierExact {
		t.Fatalf("answered by tier %v, want %v", tier, TierExact)
	}
	eng.conv.mu.Lock()
	built := eng.conv.eng != nil
	eng.conv.mu.Unlock()
	if !built {
		t.Fatal("exact rescue did not come from the convolution oracle")
	}
	exact, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(m.Power - exact.Power); diff > 1e-9 {
		t.Fatalf("oracle-rescued power %v vs exact %v", m.Power, exact.Power)
	}
	// The solver tag distinguishes the convolution rescue from the MVA one.
	st := eng.borrow()
	defer eng.release(st)
	sol, tier2, err := eng.solve(st, w)
	if err != nil || tier2 != TierExact {
		t.Fatalf("re-solve: tier %v err %v", tier2, err)
	}
	if sol.Solver != "convolution+fallback" {
		t.Fatalf("solver tag %q, want convolution+fallback", sol.Solver)
	}
}

// TestExactEngineRobustSharedCache: DimensionRobust scenario engines with
// structurally identical perturbed models share one oracle, and the
// engine-backed robust run matches the plain one.
func TestExactEngineRobustSharedCache(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := []Scenario{
		{Name: "nominal", Weight: 2},
		{Name: "twin", Weight: 1}, // identical perturbation: same structure
	}
	base := Options{Evaluator: EvalExactMVA, MaxWindow: 6}
	rd, err := DimensionRobust(n, scenarios, RobustMinimax, base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewOracleCache(0)
	withEngine := base
	withEngine.ExactEngine = true
	withEngine.Oracles = cache
	re, err := DimensionRobust(n, scenarios, RobustMinimax, withEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Windows.Equal(re.Windows) {
		t.Errorf("engine windows %v vs direct %v", re.Windows, rd.Windows)
	}
	if rel := math.Abs(re.WorstPower-rd.WorstPower) / rd.WorstPower; rel > 1e-9 {
		t.Errorf("engine worst power %v vs direct %v", re.WorstPower, rd.WorstPower)
	}
	cache.mu.Lock()
	oracles := len(cache.m)
	cache.mu.Unlock()
	if oracles != 1 {
		t.Errorf("structurally identical scenarios built %d oracles, want 1 shared", oracles)
	}
}

// TestExactEngineOversizedCandidate: a candidate beyond the oracle's
// lattice cap must still be answered (by the exact recursion), identically
// to a run without the engine.
func TestExactEngineOversizedCandidate(t *testing.T) {
	n := topo.Canada4Class(10, 10, 10, 10)
	// 41^4 > exactOracleCap: the oracle declines, ExactMultichain answers.
	w := numeric.IntVector{40, 40, 40, 40}
	if _, err := numeric.LatticeSize(w, exactOracleCap); err == nil {
		t.Fatalf("test vector %v fits the oracle cap; pick a larger one", w)
	}
	engined, err := NewEngine(n, Options{Evaluator: EvalExactMVA, ExactEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	me, err := engined.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	md, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if me.Power != md.Power {
		t.Errorf("oversized candidate: engine-run power %v vs direct %v", me.Power, md.Power)
	}
}

// TestNetworkKeySeparatesStructure: the oracle-cache key ignores chain
// populations and changes with every field the lattice depends on.
func TestNetworkKeySeparatesStructure(t *testing.T) {
	model, _, err := topo.Canada4Class(6, 6, 6, 12).ClosedModel(numeric.IntVector{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// clone copies every slice the key reads, so each edit stays local.
	clone := func() *qnet.Network {
		c := &qnet.Network{Stations: slices.Clone(model.Stations), Chains: slices.Clone(model.Chains)}
		for i := range c.Stations {
			c.Stations[i].RateFactors = slices.Clone(c.Stations[i].RateFactors)
		}
		for r := range c.Chains {
			c.Chains[r].Visits = slices.Clone(c.Chains[r].Visits)
			c.Chains[r].ServTime = slices.Clone(c.Chains[r].ServTime)
		}
		return c
	}
	key := networkKey(model)
	pops := clone()
	pops.Chains[2].Population = 9
	if networkKey(pops) != key {
		t.Error("a population change altered the key")
	}
	edits := map[string]func(*qnet.Network){
		"kind":        func(n *qnet.Network) { n.Stations[1].Kind = qnet.IS },
		"servers":     func(n *qnet.Network) { n.Stations[1].Servers = 2 },
		"open load":   func(n *qnet.Network) { n.Stations[1].OpenLoad = 0.25 },
		"rate factor": func(n *qnet.Network) { n.Stations[1].RateFactors = []float64{1, 2} },
		"visit":       func(n *qnet.Network) { n.Chains[0].Visits[3] += 1 },
		"service":     func(n *qnet.Network) { n.Chains[3].ServTime[0] += 1 },
		"chains":      func(n *qnet.Network) { n.Chains = n.Chains[:3] },
	}
	for name, edit := range edits {
		n := clone()
		edit(n)
		if networkKey(n) == key {
			t.Errorf("%s change left the key unchanged", name)
		}
	}
}
