package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/qnet"
)

// shadowMVA repeats core.Engine's σ-heuristic evaluation from outside the
// engine, so the traced run can time the mva and power layers on exactly
// the candidates the search evaluates: a Prevalidated closed model, the
// qnet.Compile visit lists, one Workspace, and its own warm-seed chain,
// re-solved from the previous seed on every commit as the engine does.
// Its objective must equal Engine.ObjectiveValue bit for bit.
type shadowMVA struct {
	model    qnet.Network // owns its chains; shares the reference stations
	sparse   *qnet.Sparse
	excluded [][]int
	ws       *mva.Workspace
	warm     *mva.WarmStart
}

func newShadowMVA(n *netmodel.Network) (*shadowMVA, error) {
	model, excluded, err := n.ClosedModel(fill(len(n.Classes), 1))
	if err != nil {
		return nil, err
	}
	ref, err := mva.Prevalidate(model)
	if err != nil {
		return nil, err
	}
	return &shadowMVA{
		model:    qnet.Network{Stations: ref.Stations, Chains: append([]qnet.Chain(nil), ref.Chains...)},
		sparse:   qnet.Compile(ref),
		excluded: excluded,
		ws:       mva.NewWorkspace(),
	}, nil
}

// solve runs the σ-heuristic at windows x. The solution lives in the
// workspace until the next call.
func (s *shadowMVA) solve(x numeric.IntVector) (*mva.Solution, error) {
	for r := range s.model.Chains {
		s.model.Chains[r].Population = x[r]
	}
	return mva.Approximate(&s.model, mva.Options{
		Method:       mva.SigmaHeuristic,
		Prevalidated: true,
		Workspace:    s.ws,
		Warm:         s.warm,
		Sparse:       s.sparse,
	})
}

// objective is the WINDIM objective of a solution from solve.
func (s *shadowMVA) objective(sol *mva.Solution) (float64, error) {
	m, err := power.FromSolution(&s.model, sol, s.excluded)
	if err != nil {
		return 0, err
	}
	return m.Objective(), nil
}

// commit re-solves x from the current seed and makes it the next seed.
func (s *shadowMVA) commit(x numeric.IntVector) {
	if sol, err := s.solve(x); err == nil {
		s.warm = mva.WarmFromSolution(sol)
	}
}

// sameObjective compares the engine's objective call with the shadow's
// at one candidate: both failed to converge, or both returned the same
// bits.
func sameObjective(engV float64, engErr error, shV float64, shErr error) error {
	engNC := errors.Is(engErr, mva.ErrNotConverged)
	shNC := errors.Is(shErr, mva.ErrNotConverged)
	switch {
	case engNC && shNC:
		return nil
	case engErr != nil && !engNC:
		return engErr
	case shErr != nil && !shNC:
		return shErr
	case engNC != shNC:
		return fmt.Errorf("engine converged: %v, shadow converged: %v", !engNC, !shNC)
	case math.Float64bits(engV) != math.Float64bits(shV):
		return fmt.Errorf("engine objective %v, shadow %v", engV, shV)
	}
	return nil
}

// searchValue maps an engine objective call to the value core.Dimension
// searches on: a candidate that does not converge even after the
// fallback chain is infeasible (+Inf), not an error.
func searchValue(v float64, err error) (float64, error) {
	if errors.Is(err, mva.ErrNotConverged) {
		return math.Inf(1), nil
	}
	return v, err
}

func fill(n, x int) numeric.IntVector {
	v := numeric.NewIntVector(n)
	for i := range v {
		v[i] = x
	}
	return v
}
