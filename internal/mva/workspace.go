package mva

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// WarmStart carries a previously converged solution used to seed STEP 1 of
// the approximate solvers in place of the balanced/bottleneck
// initialisation (eqs. 4.16–4.17). The queue-length columns are rescaled
// to the new chain populations, so a warm start remains valid when
// neighbouring candidates differ by a step in one window — exactly the
// structure of successive pattern-search probes, where the fixed points
// are nearly identical and the iteration converges in a fraction of the
// cold sweep count.
//
// Only mass at a chain's visited stations is read; a solver-produced seed
// (WarmFromSolution) never carries any elsewhere.
//
// Warm-started results converge to the same fixed point as cold ones only
// up to the solver tolerance; callers that need bit-deterministic values
// per candidate (core.Engine under speculative-parallel search) must
// derive the seed from state that depends only on the committed search
// trajectory, never on evaluation order.
type WarmStart struct {
	// Throughput is the previous solution's chain throughput vector.
	Throughput numeric.Vector
	// QueueLen is the previous solution's per-station, per-chain mean
	// queue-length matrix.
	QueueLen *numeric.Matrix
}

// WarmFromSolution clones the parts of a solution a warm start needs. The
// clone makes the seed immune to workspace reuse: solutions returned from
// a workspace-backed Approximate call are overwritten by the next call.
func WarmFromSolution(sol *Solution) *WarmStart {
	return &WarmStart{
		Throughput: sol.Throughput.Clone(),
		QueueLen:   sol.QueueLen.Clone(),
	}
}

// matches reports whether the seed's dimensions fit a network with nSt
// stations and nCh chains.
func (w *WarmStart) matches(nSt, nCh int) bool {
	return w != nil && len(w.Throughput) == nCh && w.QueueLen != nil &&
		w.QueueLen.Rows == nSt && w.QueueLen.Cols == nCh
}

// Workspace holds every buffer Approximate needs, so that repeated calls
// — the inner loop of WINDIM's pattern search — run with zero steady-state
// allocations. A workspace is NOT safe for concurrent use; concurrent
// evaluators (core.Engine's pool) hold one workspace each.
//
// Reusing a workspace never changes results: all per-call state is reset
// at the start of each call, so a workspace-backed run reproduces the
// workspace-free run exactly.
type Workspace struct {
	nSt, nCh int

	active []bool
	lam    numeric.Vector
	prev   numeric.Vector
	totQ   numeric.Vector

	// Fixed-point state per visit-list entry of the compiled view: qE[e],
	// tE[e] and sE[e] are the queue length, queue time and arrival-instant
	// correction σ of entry e's (chain, station) pair.
	qE, tE, sE []float64
	// qOld[e] is qE[e] before the latest sweep and lamStep the latest
	// sweep's throughput step: the state the extrapolation reads.
	qOld    []float64
	lamStep numeric.Vector

	// σ sub-problem scratch, indexed by position along one chain's route
	// (so at most nSt long): the inflated service times, and the
	// single-chain recursion's N(d-1) and latest queue times.
	servInf, nPrev, tPrev numeric.Vector

	// compiledSp caches the sparse view Approximate compiles when the
	// caller supplies none; keyed by backing-array identity
	// (qnet.Sparse.Matches), so re-solving the same network — the engine
	// hot path when no Options.Sparse is threaded through — stays
	// allocation-free.
	compiledSp *qnet.Sparse
	// lastSp is the compiled view of the previous call. The entry arrays
	// are laid out for it, and sol's dense matrices are non-zero only on
	// its visit lists, which every converged call overwrites; a new view
	// re-lays the arrays and clears sol.
	lastSp *qnet.Sparse

	// sol is returned by workspace-backed Approximate calls; it is valid
	// only until the next call with the same workspace.
	sol *Solution
}

// NewWorkspace returns an empty workspace; buffers are sized lazily from
// the first network solved with it.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the per-station and per-chain buffers for an nSt-station,
// nCh-chain network, reallocating only on dimension change.
func (w *Workspace) ensure(nSt, nCh int) {
	if w.nSt == nSt && w.nCh == nCh {
		return
	}
	w.nSt, w.nCh = nSt, nCh
	w.active = make([]bool, nCh)
	w.lam = numeric.NewVector(nCh)
	w.prev = numeric.NewVector(nCh)
	w.lamStep = numeric.NewVector(nCh)
	w.totQ = numeric.NewVector(nSt)
	w.servInf = numeric.NewVector(nSt)
	w.nPrev = numeric.NewVector(nSt)
	w.tPrev = numeric.NewVector(nSt)
	w.compiledSp = nil
	w.lastSp = nil
	w.sol = newSolution(nSt, nCh)
}

// compiled returns the sparse view to solve with: the caller's (when it
// matches the network's backing arrays), else the workspace's cached one,
// else a fresh compilation that is cached for the next call.
func (w *Workspace) compiled(net *qnet.Network, sp *qnet.Sparse) *qnet.Sparse {
	if sp != nil && sp.Matches(net) {
		return sp
	}
	if w.compiledSp != nil && w.compiledSp.Matches(net) {
		return w.compiledSp
	}
	w.compiledSp = qnet.Compile(net)
	return w.compiledSp
}

// reset clears the per-call state in O(route lengths): the entry arrays
// and the throughputs. Only a change of compiled view touches the dense
// solution matrices.
func (w *Workspace) reset(sp *qnet.Sparse) {
	if sp != w.lastSp {
		w.lastSp = sp
		n := sp.Entries()
		w.qE = make([]float64, n)
		w.tE = make([]float64, n)
		w.sE = make([]float64, n)
		w.qOld = make([]float64, n)
		w.sol.QueueLen.Zero()
		w.sol.QueueTime.Zero()
	}
	clear(w.qE)
	clear(w.tE)
	w.lam.Zero()
	w.lamStep.Zero()
}

// seedChainFromWarm seeds chain r's STEP-1 state from a warm start,
// rescaling the queue-length column (its mass at the chain's visited
// stations) to the chain's current population. It reports false (leaving
// qE and lam untouched) when the warm column is degenerate, so the caller
// can fall back to the cold initialisation.
func seedChainFromWarm(warm *WarmStart, sp *qnet.Sparse, r, pop int, qE []float64, lam numeric.Vector) bool {
	lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
	colSum := 0.0
	for e := lo; e < hi; e++ {
		colSum += warm.QueueLen.At(int(sp.EntStation[e]), r)
	}
	wl := warm.Throughput[r]
	if !(colSum > 0) || math.IsInf(colSum, 0) || !(wl > 0) || math.IsInf(wl, 0) {
		return false
	}
	scale := float64(pop) / colSum
	for e := lo; e < hi; e++ {
		qE[e] = warm.QueueLen.At(int(sp.EntStation[e]), r) * scale
	}
	lam[r] = wl
	return true
}
