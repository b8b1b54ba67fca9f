package mva

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// Method selects an approximate MVA variant.
type Method int

const (
	// SigmaHeuristic is the thesis's heuristic (Reiser 1979, eqs.
	// 4.8–4.15): the arrival-instant correction σ_ir is estimated from a
	// single-chain problem for chain r whose service times are inflated
	// by the other chains' utilisation, and only the arriving chain's own
	// queue length is corrected (σ_ij(r-) = 0 for j ≠ r, eq. 4.11).
	SigmaHeuristic Method = iota
	// Schweitzer is the Schweitzer–Bard proportional approximation:
	// N_ij(D - e_r) ≈ N_ij(D) * (D_j - δ_jr)/D_j. Included as the
	// ablation baseline the thesis's heuristic is judged against.
	Schweitzer
)

func (m Method) String() string {
	switch m {
	case SigmaHeuristic:
		return "sigma-heuristic"
	case Schweitzer:
		return "schweitzer"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Initialization selects how mean queue lengths are seeded (STEP 1 of the
// iterative heuristic, eqs. 4.16–4.17).
type Initialization int

const (
	// Balanced spreads each chain's population evenly over its stations
	// (the "totally balanced chain" assumption, eq. 4.17).
	Balanced Initialization = iota
	// Bottleneck places each chain's whole population at its
	// largest-demand station (the "static bottleneck" rule, eq. 4.16).
	Bottleneck
)

func (in Initialization) String() string {
	switch in {
	case Balanced:
		return "balanced"
	case Bottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("Initialization(%d)", int(in))
	}
}

// Options configures the approximate solvers. The zero value is the
// thesis's configuration: σ-heuristic, balanced initialisation,
// tolerance 1e-8, up to 10000 sweeps.
type Options struct {
	Method Method
	Init   Initialization
	// Tol is the convergence threshold (the APL program's CRIT).
	// Approximate stops at a sweep whose throughput step and queue-length
	// step are both below Tol, each measured as the Euclidean distance
	// between successive vectors (the queue lengths over every visited
	// (station, chain) pair); the sweep right after an extrapolation jump
	// never stops it. The Linearizer cores stop on the throughput step
	// alone. <= 0 means 1e-8.
	Tol float64
	// MaxIter bounds fixed-point sweeps. <= 0 means 10000.
	MaxIter int
	// Damping in (0, 1] scales queue-length updates: new = damping*new +
	// (1-damping)*old. 0 means 1 (no damping). The undamped iteration
	// matches the APL program; damping 0.5 rescues rare oscillations.
	Damping float64
	// Warm, when non-nil, seeds STEP 1 from a previous solution instead of
	// the Init rule: queue-length columns are rescaled to the current
	// populations and throughputs carried over. Chains whose warm column
	// is degenerate (or a seed whose dimensions do not match) fall back to
	// the cold initialisation. The fixed point reached agrees with the
	// cold one to within Tol, not bitwise. Only queue-length mass at the
	// chain's visited stations is used; WarmFromSolution seeds carry no
	// mass elsewhere.
	Warm *WarmStart
	// Workspace, when non-nil, supplies preallocated buffers so repeated
	// solves allocate nothing in steady state. The returned Solution then
	// aliases workspace storage and is valid only until the next call with
	// the same workspace; clone (or WarmFromSolution) to retain. Results
	// are bit-identical with and without a workspace. Not safe for
	// concurrent use.
	Workspace *Workspace
	// Sparse, when non-nil and compiled from this network's backing
	// arrays (qnet.Sparse.Matches), supplies the compiled visit lists the
	// sweeps iterate, skipping the per-call compilation. core.Engine
	// compiles once at construction and passes it for every candidate.
	// When nil or mismatched, the solver compiles (and, workspace-backed,
	// caches) its own; results are identical either way.
	Sparse *qnet.Sparse
	// Prevalidated promises the network is already validated, supported,
	// and free of open load (EffectiveClosed applied), skipping those
	// per-call passes. core.Engine validates and reduces its model once at
	// construction and sets this for every candidate evaluation.
	Prevalidated bool
	// Context, when non-nil, is polled between fixed-point sweeps so a
	// stuck or slow iteration can be abandoned from outside: the solver
	// returns an error wrapping ctx.Err(). nil means never cancelled.
	Context context.Context
	// SweepBudget, when non-nil, is polled between sweeps on the same
	// cadence as Context; returning false abandons the fixed point with an
	// error wrapping ErrNotConverged — unlike a Context cancellation, which
	// is terminal. This is the hook core's per-candidate watchdog uses: an
	// overlong iteration is reported as a convergence failure, so the
	// resilient fallback chain can rescue the candidate instead of the
	// whole search dying with it. The sweep count at the poll is passed for
	// diagnostics. nil means unbounded (MaxIter still applies).
	SweepBudget func(sweeps int) bool
}

// sweepGate polls ctx and the sweep budget on the first sweep (so a solve
// never starts against an already-dead context or an exhausted budget) and
// every ctxPollInterval sweeps after that — a per-sweep check would put a
// branch and an atomic load in the hot loop for no benefit; sweeps are
// microseconds.
const ctxPollInterval = 128

func sweepGate(opts *Options, iter int) error {
	if iter != 1 && iter%ctxPollInterval != 0 {
		return nil
	}
	if ctx := opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mva: solve cancelled after %d sweeps: %w", iter, err)
		}
	}
	if opts.SweepBudget != nil && !opts.SweepBudget(iter) {
		return fmt.Errorf("%w: sweep budget exhausted after %d sweeps (method %v)",
			ErrNotConverged, iter, opts.Method)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// Revision names the fixed-point iteration of Approximate. Solves under
// different revisions agree only to the tolerance, not bitwise, so
// anything that stores their values for reuse (core's checkpoint
// fingerprint) keys on it. Change it with any change to the iteration.
const Revision = "extrapolated-full-state-stop"

// ErrNotConverged is wrapped in the error returned when the fixed point
// fails to converge within MaxIter sweeps.
var ErrNotConverged = errors.New("mva: approximate MVA did not converge")

// Approximate solves the closed multichain network by the selected
// approximate MVA. Chains with zero population contribute nothing and get
// zero throughput.
//
// The fixed-point sweeps iterate the network's compiled sparse visit lists
// (qnet.Sparse) and keep their state per visit-list entry, so a sweep
// costs O(total route length) instead of O(stations × chains); on the
// window flow-control models, where each chain visits only its route's few
// stations, that is the difference between per-candidate cost scaling with
// the network and scaling with the routes. The sparse iteration visits
// exactly the dense loops' non-zero terms in the dense loops' order, so
// results are bit-identical to a dense evaluation.
//
// Each sweep takes the per-station queue-length totals once, then runs
// STEPs 2–5 fused, one chain at a time. The fusion reorders nothing that
// is read: chain r's σ reads only the pre-sweep throughputs (prev), STEP 3
// reads only the pre-sweep totals, and chain r's own queue-length update
// is read by no later chain in the same sweep — so the fused sweep is bit
// for bit the step-by-step one.
//
// The fixed point is extrapolated: once three plain sweeps show a steady
// contraction ratio ρ of the full-state step norm hypot(‖Δλ‖, ‖Δq‖) —
// the last two ratios within 10%, ρ < 0.9, the last two throughput steps
// pointing the same way — λ and every queue length move by ρ/(1-ρ) times
// their last step, unless that would take a throughput to zero or a queue
// length below zero. The solve stops as Options.Tol describes, on the
// queue-length step as well as the throughput step: stopping on the
// throughput step alone is unsound even without jumps, since a
// queue-length error mode can leave the throughputs nearly still (DESIGN
// §10). Results are not bitwise equal to those of an older revision of
// the iteration (see Revision).
func Approximate(net *qnet.Network, opts Options) (*Solution, error) {
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

	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(nSt, nCh)
	sp := ws.compiled(net, opts.Sparse)
	ws.reset(sp)

	// Active chains: population >= 1.
	active := ws.active
	anyActive := false
	for r := 0; r < nCh; r++ {
		active[r] = net.Chains[r].Population > 0
		anyActive = anyActive || active[r]
	}
	if !anyActive {
		return ws.solution(sp, 0, ""), nil
	}

	// STEP 1: initial queue lengths and throughputs — from the warm seed
	// where one is supplied and usable, the Init rule otherwise.
	qE, tE, sE, lam, prev, totQ := ws.qE, ws.tE, ws.sE, ws.lam, ws.prev, ws.totQ
	warm := opts.Warm
	if !warm.matches(nSt, nCh) {
		warm = nil
	}
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		ch := &net.Chains[r]
		if warm != nil && seedChainFromWarm(warm, sp, r, ch.Population, qE, lam) {
			continue
		}
		if err := coldSeedChain(ch, sp, r, opts.Init, qE, lam); err != nil {
			return nil, err
		}
	}

	// Extrapolation state: the full-state step norms of the two previous
	// sweeps, the plain sweeps since the start or the last jump, and
	// whether the previous sweep was followed by a jump.
	var norm1, norm2 float64
	plain, jumped := 0, false
	qOld, lamStep := ws.qOld, ws.lamStep
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := sweepGate(&opts, iter); err != nil {
			return nil, err
		}
		// STEP 3's sum_j N_ij, accumulated once per sweep from the
		// station-major transpose (chains ascending — the dense summation
		// order) instead of per (station, chain) pair.
		for i := 0; i < nSt; i++ {
			if sp.IsIS[i] {
				continue
			}
			total := 0.0
			for m := sp.StatPtr[i]; m < sp.StatPtr[i+1]; m++ {
				total += qE[sp.StatEntry[m]]
			}
			totQ[i] = total
		}
		copy(prev, lam)
		dq2 := 0.0
		for r := 0; r < nCh; r++ {
			if !active[r] {
				continue
			}
			lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
			pop := net.Chains[r].Population
			// STEP 2: arrival-instant correction.
			switch opts.Method {
			case Schweitzer:
				inv := 1 / float64(pop)
				for e := lo; e < hi; e++ {
					sE[e] = qE[e] * inv
				}
			default: // SigmaHeuristic
				if iter == 1 || !ws.sigmaFixed[r] {
					ws.sigmaFixed[r] = !ws.chainSigma(sp, r, pop, prev)
				}
			}
			// STEPs 3–4: queue times t_ir = s_ir (1 + sum_j N_ij - sigma_ir)
			// and Little for the chain.
			denom := 0.0
			for e := lo; e < hi; e++ {
				t := sp.EntServ[e]
				if !sp.EntIS[e] {
					seen := totQ[sp.EntStation[e]] - sE[e]
					if seen < 0 {
						seen = 0
					}
					t = sp.EntServ[e] * (1 + seen)
				}
				tE[e] = t
				denom += sp.EntVisit[e] * t
			}
			lam[r] = float64(pop) / denom
			// STEP 5: Little for queues, with optional damping.
			for e := lo; e < hi; e++ {
				old := qE[e]
				next := lam[r] * sp.EntVisit[e] * tE[e]
				qE[e] = opts.Damping*next + (1-opts.Damping)*old
				qOld[e] = old
				d := qE[e] - old
				dq2 += d * d
			}
		}
		// STEP 6: stopping condition on the full state. A sweep that
		// follows a jump measured its λ step against a λ no sweep
		// produced, so it never stops the solve.
		dl2, dot := 0.0, 0.0
		for r := 0; r < nCh; r++ {
			d := lam[r] - prev[r]
			dl2 += d * d
			dot += d * lamStep[r]
			lamStep[r] = d
		}
		dl, dq := math.Sqrt(dl2), math.Sqrt(dq2)
		if !jumped && dl < opts.Tol && dq < opts.Tol {
			return ws.solution(sp, iter, opts.Method.String()), nil
		}
		// Extrapolation (rule above): sum the iteration's geometric tail.
		jumped = false
		norm := math.Hypot(dl, dq)
		if plain++; plain >= 3 {
			rho, rhoPrev := norm/norm2, norm2/norm1
			if rho < 0.9 && math.Abs(rho-rhoPrev) <= 0.1*rho && dot > 0 &&
				ws.extrapolate(sp, rho/(1-rho)) {
				plain, jumped = 0, true
			}
		}
		norm1, norm2 = norm2, norm
	}
	return nil, fmt.Errorf("%w after %d sweeps (method %v, tol %g)",
		ErrNotConverged, opts.MaxIter, opts.Method, opts.Tol)
}

// extrapolate moves every active chain's λ and queue lengths by f times
// their last sweep's step, and reports whether it did: a jump that would
// take a throughput to zero or below, or a queue length below zero, is
// not taken.
func (w *Workspace) extrapolate(sp *qnet.Sparse, f float64) bool {
	for r := 0; r < sp.NCh; r++ {
		if !w.active[r] {
			continue
		}
		if !(w.lam[r]+f*w.lamStep[r] > 0) {
			return false
		}
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			if !(w.qE[e]+f*(w.qE[e]-w.qOld[e]) >= 0) {
				return false
			}
		}
	}
	for r := 0; r < sp.NCh; r++ {
		if !w.active[r] {
			continue
		}
		w.lam[r] += f * w.lamStep[r]
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			w.qE[e] += f * (w.qE[e] - w.qOld[e])
		}
	}
	return true
}

// solution scatters the entry-major state into the workspace's Solution.
// Every visit-list entry is written, and nothing else is ever non-zero
// (see Workspace.lastSp).
func (w *Workspace) solution(sp *qnet.Sparse, iter int, solver string) *Solution {
	sol := w.sol
	sol.Iterations = iter
	sol.Solver = solver
	copy(sol.Throughput, w.lam)
	for r := 0; r < sp.NCh; r++ {
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			i := int(sp.EntStation[e])
			sol.QueueTime.Set(i, r, w.tE[e])
			sol.QueueLen.Set(i, r, w.qE[e])
		}
	}
	return sol
}

// coldSeedChain applies the Init rule (eqs. 4.16–4.17) to chain r and
// seeds its throughput with population over pure service demand (the APL
// program's initialisation). A chain with no positive-demand station
// cannot be placed — the Bottleneck rule used to index q with -1 and
// panic — so both rules reject it with a validation error. Every active
// chain therefore reaches the sweeps with a non-empty route.
func coldSeedChain(ch *qnet.Chain, sp *qnet.Sparse, r int, init Initialization, qE []float64, lam numeric.Vector) error {
	lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
	switch init {
	case Bottleneck:
		best, at := -1.0, int32(-1)
		for e := lo; e < hi; e++ {
			if sp.EntDemand[e] > best {
				best, at = sp.EntDemand[e], e
			}
		}
		if at < 0 {
			return fmt.Errorf("mva: chain %d (%s) has no station with positive visits and demand; cannot initialise", r, ch.Name)
		}
		qE[at] = float64(ch.Population)
	default: // Balanced
		if hi == lo {
			return fmt.Errorf("mva: chain %d (%s) has no station with positive visits and demand; cannot initialise", r, ch.Name)
		}
		share := float64(ch.Population) / float64(hi-lo)
		for e := lo; e < hi; e++ {
			qE[e] = share
		}
	}
	lam[r] = float64(ch.Population) / sp.DemandSum[r]
	return nil
}

// chainSigma fills sE over chain r's entries with the thesis's heuristic
// estimate: isolate chain r into a single-chain network whose service
// times are inflated by the other chains' utilisation at each station,
// s'_ri = s_ri / (1 - rho_{-r,i}), run exact single-chain MVA up to E_r,
// and take σ_ir = N_i(E_r) - N_i(E_r - 1) (eq. 4.12). For other chains
// σ_ij(r-) is taken as zero (eq. 4.11), which STEP 3 realises by
// subtracting sigma only for the arriving chain.
//
// The other chains' utilisation at a station is read off the station-major
// transpose (only the chains actually visiting the station contribute, via
// the precompiled demand array) at the throughputs lam. The recursion
// keeps only N(d-1) and N(d). chainSigma reports whether any other chain
// shares one of chain r's non-IS stations; when none does (every
// single-chain network), the inflated service times are the raw ones
// whatever the throughputs, so the σ just computed holds for the whole
// solve.
func (w *Workspace) chainSigma(sp *qnet.Sparse, r, pop int, lam numeric.Vector) (shared bool) {
	const maxRho = 0.999 // clamp: transient iterates can overshoot capacity
	lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
	deg := int(hi - lo)
	servInf := w.servInf[:deg]
	for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
		// IS stations have a server per customer: other chains occupy
		// them without delaying anyone, so no inflation.
		if sp.EntIS[e] {
			servInf[k] = sp.EntServ[e]
			continue
		}
		i := sp.EntStation[e]
		other := 0.0
		for m := sp.StatPtr[i]; m < sp.StatPtr[i+1]; m++ {
			if j := int(sp.StatChain[m]); j != r {
				other += lam[j] * sp.EntDemand[sp.StatEntry[m]]
				shared = true
			}
		}
		if other > maxRho {
			other = maxRho
		}
		servInf[k] = sp.EntServ[e] / (1 - other)
	}
	// The exact single-chain MVA recursion (ExactSingleChain's arithmetic
	// order) from N(0) = 0; each step stores t_i in nCur and then scales
	// it into N_i(d) in place.
	nPrev, nCur := w.nPrev[:deg], w.nCur[:deg]
	clear(nPrev)
	for d := 1; d <= pop; d++ {
		if d > 1 {
			nPrev, nCur = nCur, nPrev
		}
		denom := 0.0
		for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
			t := servInf[k]
			if !sp.EntIS[e] {
				t = servInf[k] * (1 + nPrev[k])
			}
			nCur[k] = t
			denom += sp.EntVisit[e] * t
		}
		l := float64(d) / denom
		for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
			nCur[k] = l * sp.EntVisit[e] * nCur[k]
		}
	}
	for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
		s := nCur[k] - nPrev[k]
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		w.sE[e] = s
	}
	return shared
}
