package mva

// This file preserves the pre-sparse dense solver implementations
// verbatim (modulo renames) as executable references: the sparse rewrites
// in approx.go, exact.go and linearizer.go claim bit-identical results,
// and sparse_equiv_test.go checks that claim against these.

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// denseApproximate is the dense-loop Approximate: every per-chain loop
// walks all N stations guarded by `Visits[i] == 0`, STEP 3 re-sums all R
// chains per (station, chain) pair, and the σ sub-problem recursion is
// recomputed from population 1 each sweep for every chain (production
// reuses σ only where the inputs cannot change, so recomputing changes
// nothing).
func denseApproximate(net *qnet.Network, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if !opts.Prevalidated {
		if err := net.Validate(); err != nil {
			return nil, err
		}
		if err := checkSupported(net, false); err != nil {
			return nil, err
		}
		net = net.EffectiveClosed()
	}
	nSt, nCh := net.N(), net.R()

	active := make([]bool, nCh)
	anyActive := false
	for r := 0; r < nCh; r++ {
		active[r] = net.Chains[r].Population > 0
		anyActive = anyActive || active[r]
	}
	sol := newSolution(nSt, nCh)
	if !anyActive {
		return sol, nil
	}

	q := numeric.NewMatrix(nSt, nCh)
	lam := numeric.NewVector(nCh)
	warm := opts.Warm
	if !warm.matches(nSt, nCh) {
		warm = nil
	}
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		ch := &net.Chains[r]
		if warm != nil && denseSeedChainFromWarm(warm, r, nSt, ch.Population, ch.Visits, q, lam) {
			continue
		}
		if err := denseColdSeedChain(ch, r, nSt, opts.Init, q, lam); err != nil {
			return nil, err
		}
	}

	t := numeric.NewMatrix(nSt, nCh)
	sigma := numeric.NewMatrix(nSt, nCh)
	prev := numeric.NewVector(nCh)
	qOld := numeric.NewMatrix(nSt, nCh)
	lamStep := numeric.NewVector(nCh)
	var norm1, norm2 float64
	plain, jumped := 0, false
	for iter := 1; iter <= opts.MaxIter; iter++ {
		switch opts.Method {
		case Schweitzer:
			for r := 0; r < nCh; r++ {
				if !active[r] {
					continue
				}
				inv := 1 / float64(net.Chains[r].Population)
				for i := 0; i < nSt; i++ {
					sigma.Set(i, r, q.At(i, r)*inv)
				}
			}
		default:
			if err := denseSigma(net, active, lam, sigma); err != nil {
				return nil, err
			}
		}
		for r := 0; r < nCh; r++ {
			if !active[r] {
				continue
			}
			ch := &net.Chains[r]
			for i := 0; i < nSt; i++ {
				if ch.Visits[i] == 0 {
					continue
				}
				if net.Stations[i].Kind == qnet.IS {
					t.Set(i, r, ch.ServTime[i])
					continue
				}
				total := 0.0
				for j := 0; j < nCh; j++ {
					total += q.At(i, j)
				}
				seen := total - sigma.At(i, r)
				if seen < 0 {
					seen = 0
				}
				t.Set(i, r, ch.ServTime[i]*(1+seen))
			}
		}
		copy(prev, lam)
		for r := 0; r < nCh; r++ {
			if !active[r] {
				continue
			}
			ch := &net.Chains[r]
			denom := 0.0
			for i := 0; i < nSt; i++ {
				if ch.Visits[i] > 0 {
					denom += ch.Visits[i] * t.At(i, r)
				}
			}
			lam[r] = float64(ch.Population) / denom
		}
		dq2 := 0.0
		for r := 0; r < nCh; r++ {
			if !active[r] {
				continue
			}
			ch := &net.Chains[r]
			for i := 0; i < nSt; i++ {
				if ch.Visits[i] == 0 {
					continue
				}
				old := q.At(i, r)
				next := lam[r] * ch.Visits[i] * t.At(i, r)
				q.Set(i, r, opts.Damping*next+(1-opts.Damping)*old)
				qOld.Set(i, r, old)
				d := q.At(i, r) - old
				dq2 += d * d
			}
		}
		dl2, dot := 0.0, 0.0
		for r := 0; r < nCh; r++ {
			d := lam[r] - prev[r]
			dl2 += d * d
			dot += d * lamStep[r]
			lamStep[r] = d
		}
		dl, dq := math.Sqrt(dl2), math.Sqrt(dq2)
		if !jumped && dl < opts.Tol && dq < opts.Tol {
			sol.Iterations = iter
			sol.Solver = opts.Method.String()
			copy(sol.Throughput, lam)
			for i := 0; i < nSt; i++ {
				for r := 0; r < nCh; r++ {
					sol.QueueTime.Set(i, r, t.At(i, r))
					sol.QueueLen.Set(i, r, q.At(i, r))
				}
			}
			return sol, nil
		}
		jumped = false
		norm := math.Hypot(dl, dq)
		if plain++; plain >= 3 {
			rho, rhoPrev := norm/norm2, norm2/norm1
			if rho < 0.9 && math.Abs(rho-rhoPrev) <= 0.1*rho && dot > 0 &&
				denseExtrapolate(net, active, lam, lamStep, q, qOld, rho/(1-rho)) {
				plain, jumped = 0, true
			}
		}
		norm1, norm2 = norm2, norm
	}
	return nil, fmt.Errorf("%w after %d sweeps (method %v, tol %g)",
		ErrNotConverged, opts.MaxIter, opts.Method, opts.Tol)
}

// denseExtrapolate is the extrapolation jump over the dense state: every
// active chain's λ and queue lengths move by f times their last step,
// unless that would take a throughput to zero or a queue length below
// zero.
func denseExtrapolate(net *qnet.Network, active []bool, lam, lamStep numeric.Vector, q, qOld *numeric.Matrix, f float64) bool {
	nSt, nCh := net.N(), net.R()
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		if !(lam[r]+f*lamStep[r] > 0) {
			return false
		}
		for i := 0; i < nSt; i++ {
			if net.Chains[r].Visits[i] > 0 && !(q.At(i, r)+f*(q.At(i, r)-qOld.At(i, r)) >= 0) {
				return false
			}
		}
	}
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		lam[r] += f * lamStep[r]
		for i := 0; i < nSt; i++ {
			if net.Chains[r].Visits[i] > 0 {
				q.Set(i, r, q.At(i, r)+f*(q.At(i, r)-qOld.At(i, r)))
			}
		}
	}
	return true
}

func denseColdSeedChain(ch *qnet.Chain, r, nSt int, init Initialization, q *numeric.Matrix, lam numeric.Vector) error {
	switch init {
	case Bottleneck:
		best, at := -1.0, -1
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 && ch.Demand(i) > best {
				best, at = ch.Demand(i), i
			}
		}
		if at < 0 {
			return fmt.Errorf("mva: chain %d has no station with positive visits and demand", r)
		}
		q.Set(at, r, float64(ch.Population))
	default:
		cnt := 0
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 {
				cnt++
			}
		}
		if cnt == 0 {
			return fmt.Errorf("mva: chain %d has no station with positive visits and demand", r)
		}
		share := float64(ch.Population) / float64(cnt)
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 {
				q.Set(i, r, share)
			}
		}
	}
	d := 0.0
	for i := 0; i < nSt; i++ {
		d += ch.Demand(i)
	}
	lam[r] = float64(ch.Population) / d
	return nil
}

func denseSeedChainFromWarm(warm *WarmStart, r, nSt, pop int, visits []float64, q *numeric.Matrix, lam numeric.Vector) bool {
	colSum := 0.0
	for i := 0; i < nSt; i++ {
		colSum += warm.QueueLen.At(i, r)
	}
	wl := warm.Throughput[r]
	if !(colSum > 0) || math.IsInf(colSum, 0) || !(wl > 0) || math.IsInf(wl, 0) {
		return false
	}
	scale := float64(pop) / colSum
	for i := 0; i < nSt; i++ {
		if visits[i] > 0 {
			q.Set(i, r, warm.QueueLen.At(i, r)*scale)
		}
	}
	lam[r] = wl
	return true
}

func denseSigma(net *qnet.Network, active []bool, lam numeric.Vector, sigma *numeric.Matrix) error {
	nSt, nCh := net.N(), net.R()
	const maxRho = 0.999
	visits := numeric.NewVector(nSt)
	servInf := numeric.NewVector(nSt)
	isStation := make([]bool, nSt)
	for i := 0; i < nSt; i++ {
		isStation[i] = net.Stations[i].Kind == qnet.IS
	}
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		ch := &net.Chains[r]
		anyVisit := false
		for i := 0; i < nSt; i++ {
			visits[i] = ch.Visits[i]
			servInf[i] = 0
			if ch.Visits[i] == 0 {
				continue
			}
			anyVisit = true
			if isStation[i] {
				servInf[i] = ch.ServTime[i]
				continue
			}
			other := 0.0
			for j := 0; j < nCh; j++ {
				if j != r {
					other += lam[j] * net.Chains[j].Demand(i)
				}
			}
			if other > maxRho {
				other = maxRho
			}
			servInf[i] = ch.ServTime[i] / (1 - other)
		}
		if !anyVisit {
			return fmt.Errorf("mva: sigma sub-problem for chain %d: chain visits no station", r)
		}
		// The single-chain recursion from population 1, in the exact
		// arithmetic order of the production recursion.
		pop := ch.Population
		prevQ := numeric.NewVector(nSt)
		curQ := numeric.NewVector(nSt)
		t := numeric.NewVector(nSt)
		for d := 1; d <= pop; d++ {
			denom := 0.0
			for i := 0; i < nSt; i++ {
				if visits[i] == 0 {
					continue
				}
				if isStation[i] {
					t[i] = servInf[i]
				} else {
					t[i] = servInf[i] * (1 + curQ[i])
				}
				denom += visits[i] * t[i]
			}
			l := float64(d) / denom
			copy(prevQ, curQ)
			for i := 0; i < nSt; i++ {
				if visits[i] > 0 {
					curQ[i] = l * visits[i] * t[i]
				} else {
					curQ[i] = 0
				}
			}
		}
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 {
				s := curQ[i] - prevQ[i]
				if s < 0 {
					s = 0
				} else if s > 1 {
					s = 1
				}
				sigma.Set(i, r, s)
			} else {
				sigma.Set(i, r, 0)
			}
		}
	}
	return nil
}

// denseExactMultichain is the dense-loop exact recursion.
func denseExactMultichain(net *qnet.Network) (*Solution, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := checkSupported(net, false); err != nil {
		return nil, err
	}
	net = net.EffectiveClosed()
	h := net.Populations()
	size, err := numeric.LatticeSize(h, LatticeBudget)
	if err != nil {
		return nil, fmt.Errorf("mva: %w", err)
	}
	nSt, nCh := net.N(), net.R()
	totals := make([]float64, size*nSt)
	strides := make([]int, nCh)
	stride := 1
	for r := nCh - 1; r >= 0; r-- {
		strides[r] = stride
		stride *= h[r] + 1
	}
	sol := newSolution(nSt, nCh)
	sol.Solver = "exact-mva"
	t := numeric.NewMatrix(nSt, nCh)
	idx := 0
	numeric.LatticeWalk(h, func(p numeric.IntVector) {
		base := idx * nSt
		for r := 0; r < nCh; r++ {
			if p[r] == 0 {
				continue
			}
			ch := &net.Chains[r]
			prevBase := (idx - strides[r]) * nSt
			denom := 0.0
			for i := 0; i < nSt; i++ {
				v := ch.Visits[i]
				if v == 0 {
					continue
				}
				var ti float64
				if net.Stations[i].Kind == qnet.IS {
					ti = ch.ServTime[i]
				} else {
					ti = ch.ServTime[i] * (1 + totals[prevBase+i])
				}
				t.Set(i, r, ti)
				denom += v * ti
			}
			lam := float64(p[r]) / denom
			if idx == size-1 {
				sol.Throughput[r] = lam
				for i := 0; i < nSt; i++ {
					if ch.Visits[i] > 0 {
						sol.QueueTime.Set(i, r, t.At(i, r))
						sol.QueueLen.Set(i, r, lam*ch.Visits[i]*t.At(i, r))
					}
				}
			}
			for i := 0; i < nSt; i++ {
				if v := ch.Visits[i]; v > 0 {
					totals[base+i] += lam * v * t.At(i, r)
				}
			}
		}
		idx++
	})
	return sol, nil
}

// denseLinearizer is the dense-loop Linearizer with the full [N][R][R]
// deviation array.
func denseLinearizer(net *qnet.Network, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if !opts.Prevalidated {
		if err := net.Validate(); err != nil {
			return nil, err
		}
		if err := checkSupported(net, false); err != nil {
			return nil, err
		}
		net = net.EffectiveClosed()
	}
	nSt, nCh := net.N(), net.R()
	pop := net.Populations()
	if !anyPositive(pop) {
		return newSolution(nSt, nCh), nil
	}
	f := make([][][]float64, nSt)
	for i := range f {
		f[i] = make([][]float64, nCh)
		for r := range f[i] {
			f[i][r] = make([]float64, nCh)
		}
	}
	const sweeps = 3
	warm := opts.Warm
	if !warm.matches(nSt, nCh) {
		warm = nil
	}
	var full *denseCoreResult
	for sweep := 0; sweep < sweeps; sweep++ {
		var err error
		full, err = denseLinearizerCore(net, pop, f, opts, warm)
		if err != nil {
			return nil, err
		}
		if sweep == sweeps-1 {
			break
		}
		reduced := make([]*denseCoreResult, nCh)
		for j := 0; j < nCh; j++ {
			if pop[j] == 0 {
				continue
			}
			pj := pop.Clone()
			pj[j]--
			reduced[j], err = denseLinearizerCore(net, pj, f, opts, nil)
			if err != nil {
				return nil, err
			}
		}
		for i := 0; i < nSt; i++ {
			for r := 0; r < nCh; r++ {
				if pop[r] == 0 {
					continue
				}
				yFull := full.q.At(i, r) / float64(pop[r])
				for j := 0; j < nCh; j++ {
					if reduced[j] == nil {
						continue
					}
					denom := float64(pop[r])
					if j == r {
						denom--
					}
					if denom <= 0 {
						f[i][r][j] = 0
						continue
					}
					f[i][r][j] = reduced[j].q.At(i, r)/denom - yFull
				}
			}
		}
	}
	sol := newSolution(nSt, nCh)
	sol.Iterations = full.iterations
	sol.Solver = "linearizer"
	copy(sol.Throughput, full.lam)
	for i := 0; i < nSt; i++ {
		for r := 0; r < nCh; r++ {
			sol.QueueLen.Set(i, r, full.q.At(i, r))
			sol.QueueTime.Set(i, r, full.t.At(i, r))
		}
	}
	return sol, nil
}

// denseCoreResult is the dense [N][R] layout of a Linearizer core's fixed
// point that the production core now keeps per visit-list entry.
type denseCoreResult struct {
	lam        numeric.Vector
	q, t       *numeric.Matrix
	iterations int
}

func denseLinearizerCore(net *qnet.Network, pop numeric.IntVector, f [][][]float64, opts Options, warm *WarmStart) (*denseCoreResult, error) {
	nSt, nCh := net.N(), net.R()
	res := &denseCoreResult{
		lam: numeric.NewVector(nCh),
		q:   numeric.NewMatrix(nSt, nCh),
		t:   numeric.NewMatrix(nSt, nCh),
	}
	if !anyPositive(pop) {
		return res, nil
	}
	for r := 0; r < nCh; r++ {
		if pop[r] == 0 {
			continue
		}
		ch := &net.Chains[r]
		if warm != nil && denseSeedChainFromWarm(warm, r, nSt, pop[r], ch.Visits, res.q, res.lam) {
			continue
		}
		cnt := 0
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 {
				cnt++
			}
		}
		share := float64(pop[r]) / float64(cnt)
		for i := 0; i < nSt; i++ {
			if ch.Visits[i] > 0 {
				res.q.Set(i, r, share)
			}
		}
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		prev := res.lam.Clone()
		for r := 0; r < nCh; r++ {
			if pop[r] == 0 {
				continue
			}
			ch := &net.Chains[r]
			denom := 0.0
			for i := 0; i < nSt; i++ {
				if ch.Visits[i] == 0 {
					continue
				}
				var ti float64
				if net.Stations[i].Kind == qnet.IS {
					ti = ch.ServTime[i]
				} else {
					seen := 0.0
					for j := 0; j < nCh; j++ {
						if pop[j] == 0 {
							continue
						}
						nj := float64(pop[j])
						if j == r {
							nj--
						}
						if nj <= 0 {
							continue
						}
						est := res.q.At(i, j)/float64(pop[j]) + f[i][j][r]
						if est < 0 {
							est = 0
						}
						seen += nj * est
					}
					ti = ch.ServTime[i] * (1 + seen)
				}
				res.t.Set(i, r, ti)
				denom += ch.Visits[i] * ti
			}
			res.lam[r] = float64(pop[r]) / denom
		}
		for r := 0; r < nCh; r++ {
			if pop[r] == 0 {
				continue
			}
			ch := &net.Chains[r]
			for i := 0; i < nSt; i++ {
				if ch.Visits[i] > 0 {
					next := res.lam[r] * ch.Visits[i] * res.t.At(i, r)
					res.q.Set(i, r, opts.Damping*next+(1-opts.Damping)*res.q.At(i, r))
				}
			}
		}
		if res.lam.L2Diff(prev) < opts.Tol {
			res.iterations = iter
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: dense linearizer core at population %v", ErrNotConverged, pop)
}
