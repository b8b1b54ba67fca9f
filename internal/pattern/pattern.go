// Package pattern implements the Hooke–Jeeves pattern search (Ch. 4 §4.3)
// on integer lattices — the direct-search engine inside WINDIM — plus an
// exhaustive box search used to probe global optimality on small problems
// (the thesis does this for Fig. 4.9).
//
// The search alternates exploratory moves (perturb one coordinate at a
// time by the current step) and pattern moves (repeat the combined
// successful move, doubling along established ridges), halving the step
// when exploration fails, exactly as in the thesis's APL WINDIM program —
// including its FLOC/FSTR evaluation cache, realised here as a map from
// lattice points to objective values.
package pattern

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/durable"
	"repro/internal/numeric"
)

// Objective evaluates the function to MINIMISE at an integer point.
// Returning an error aborts the search.
type Objective func(x numeric.IntVector) (float64, error)

// Options configures the search. The zero value searches with unit
// initial steps, lower bound 1 in every dimension (windows are at least
// one message), no upper bound, and KMAX = 2 step halvings.
type Options struct {
	// InitialStep gives per-dimension starting steps (>= 1). Nil means
	// all ones.
	InitialStep numeric.IntVector
	// Lo is the per-dimension lower bound (inclusive). Nil means all
	// ones.
	Lo numeric.IntVector
	// Hi is the per-dimension upper bound (inclusive). Nil means
	// unbounded above.
	Hi numeric.IntVector
	// MaxHalvings is the KMAX of the APL program: the search ends after
	// this many step reductions fail to make progress. < 0 means 0;
	// 0 is interpreted as the default 2.
	MaxHalvings int
	// MaxEvaluations bounds objective calls (cache hits excluded);
	// <= 0 means 100000. Under speculative exploration (Workers > 1) the
	// bound applies to the committed serial trajectory: discarded
	// speculative probes call the objective without consuming budget.
	MaxEvaluations int
	// Workers > 1 enables speculative-parallel exploration: the up-to-2R
	// exploratory probes of each pass are evaluated concurrently by at
	// most Workers goroutines, then acceptance decisions replay in exact
	// serial order against the speculative results. The objective must be
	// safe for concurrent calls and a pure function of its argument; in
	// return the search trajectory — Best, BestValue, BasePoints,
	// Evaluations, CacheHits, and the memo-cache contents — is
	// bit-identical to the serial search. Probes the serial order never
	// reaches are wasted objective calls (the price of speculation); their
	// values, and any errors they return, are discarded. <= 1 is serial.
	Workers int
	// OnCommit, when non-nil, is invoked serially each time the search
	// commits a new base point (including the clamped start point), with a
	// private copy of the point and its objective value. All speculative
	// evaluations of the enclosing pass have completed by the time it
	// runs, so the callback may safely mutate state the objective reads —
	// core.Engine promotes its warm-start seed here.
	OnCommit func(x numeric.IntVector, fx float64)
	// Context, when non-nil, makes the search cancellable: it is polled
	// before every objective evaluation, and on cancellation Search
	// returns the BEST-SO-FAR result (current base point, its value, the
	// trace accumulated so far) together with a non-nil error wrapping
	// ctx.Err(). A long dimensioning run under a deadline therefore
	// degrades to "the best windows found in the time allowed" instead of
	// nothing. nil means never cancelled.
	Context context.Context
	// Checkpoint, when non-nil, enables durable checkpoints: a snapshot of
	// the search state is written atomically to Checkpoint.Path on the
	// configured commit cadence, at cancellation, and at termination.
	// Snapshots are taken only at commit points — after the pass barrier —
	// so they never observe a partially evaluated pass.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, preloads the memo cache from a checkpoint
	// before the search starts. The search still runs from its start
	// point; the previously explored trajectory replays out of the cache
	// without objective calls (OnCommit still fires along it, rebuilding
	// warm-start state), so the result is bit-identical to an
	// uninterrupted run at any worker count. The checkpoint's dimension
	// must match the start point; validating ModelHash against the current
	// model is the caller's job (core does it).
	Resume *Checkpoint
}

func (o Options) withDefaults(dim int) (Options, error) {
	if o.InitialStep == nil {
		o.InitialStep = numeric.NewIntVector(dim)
		for i := range o.InitialStep {
			o.InitialStep[i] = 1
		}
	}
	if o.Lo == nil {
		o.Lo = numeric.NewIntVector(dim)
		for i := range o.Lo {
			o.Lo[i] = 1
		}
	}
	if len(o.InitialStep) != dim || len(o.Lo) != dim || (o.Hi != nil && len(o.Hi) != dim) {
		return o, fmt.Errorf("pattern: option dimensions do not match start point dimension %d", dim)
	}
	for i, s := range o.InitialStep {
		if s < 1 {
			return o, fmt.Errorf("pattern: initial step %d at dimension %d; need >= 1", s, i)
		}
	}
	if o.Hi != nil {
		for i := range o.Hi {
			if o.Hi[i] < o.Lo[i] {
				return o, fmt.Errorf("pattern: empty box at dimension %d: [%d, %d]", i, o.Lo[i], o.Hi[i])
			}
		}
	}
	if o.MaxHalvings == 0 {
		o.MaxHalvings = 2
	} else if o.MaxHalvings < 0 {
		o.MaxHalvings = 0
	}
	if o.MaxEvaluations <= 0 {
		o.MaxEvaluations = 100000
	}
	return o, nil
}

// Result reports the search outcome.
type Result struct {
	// Best is the best point found.
	Best numeric.IntVector
	// BestValue is the objective at Best.
	BestValue float64
	// Evaluations counts real objective calls.
	Evaluations int
	// CacheHits counts evaluations answered from the memo table.
	CacheHits int
	// BasePoints traces the accepted base points, starting with the
	// (clamped) start point.
	BasePoints []numeric.IntVector
}

// ErrBudget is wrapped in the error returned when MaxEvaluations is
// exhausted before the search terminates.
var ErrBudget = errors.New("pattern: evaluation budget exhausted")

type searcher struct {
	obj    Objective
	opts   Options
	cache  map[string]float64
	result *Result
	sem    chan struct{} // nil when serial; bounds speculative goroutines

	// Snapshot state for checkpointing, maintained by Search's main loop.
	ckpt     *CheckpointOptions
	start    numeric.IntVector
	base     numeric.IntVector
	fBase    float64
	step     numeric.IntVector
	halvings int
	commits  int
	doneOK   bool // set when the search terminated normally

	// Checkpoint-log state: cache entries learned since the last durable
	// write, the open log, and the byte sizes that drive compaction (the
	// header written by the last compaction, the records appended since).
	pending   map[string]JSONFloat
	log       *durable.Log
	compacted int
	appended  int
}

// future is one speculative objective evaluation in flight.
type future struct {
	done chan struct{}
	v    float64
	err  error
}

// speculation holds the in-flight exploratory probes of one pass.
type speculation struct {
	futures map[string]*future
	wg      sync.WaitGroup
}

// wait blocks until every speculative goroutine of the pass has finished,
// consumed or not. explore defers it so that no objective call is in
// flight when the pass returns — the barrier OnCommit's contract (and
// core.Engine's warm-seed promotion) relies on.
func (sp *speculation) wait() {
	if sp != nil {
		sp.wg.Wait()
	}
}

// inBox reports whether x lies inside the [Lo, Hi] search box.
func (s *searcher) inBox(x numeric.IntVector) bool {
	for i := range x {
		if x[i] < s.opts.Lo[i] || (s.opts.Hi != nil && x[i] > s.opts.Hi[i]) {
			return false
		}
	}
	return true
}

// speculate launches the up-to-2R exploratory probes about x concurrently.
// Points outside the box or already memoised are skipped — the serial
// replay answers those without calling the objective. The WHOLE probe is
// box-checked, not just the perturbed coordinate: a pattern-move base can
// itself sit outside the box, and its out-of-box neighbours must never
// reach the objective — the serial replay answers them +Inf, and an
// objective with side effects on failure (scenario degradation in
// core.DimensionRobust) must not observe points the serial search would
// never feed it.
func (s *searcher) speculate(x numeric.IntVector, step numeric.IntVector) *speculation {
	sp := &speculation{futures: make(map[string]*future, 2*len(x))}
	for i := range x {
		for _, dir := range [2]int{1, -1} {
			p := x.Clone()
			p[i] += dir * step[i]
			if !s.inBox(p) {
				continue
			}
			key := p.Key()
			if _, ok := s.cache[key]; ok {
				continue
			}
			if _, ok := sp.futures[key]; ok {
				continue
			}
			f := &future{done: make(chan struct{})}
			sp.futures[key] = f
			sp.wg.Add(1)
			go func(p numeric.IntVector, f *future) {
				defer sp.wg.Done()
				defer close(f.done)
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
				f.v, f.err = s.obj(p)
			}(p, f)
		}
	}
	return sp
}

// eval returns the (memoised) objective at x; out-of-box points are +Inf
// and never reach the objective. When sp carries a speculative result for
// x it is consumed in place of a fresh objective call; budget accounting
// and cache insertion happen exactly as in the serial search.
func (s *searcher) eval(x numeric.IntVector, sp *speculation) (float64, error) {
	if ctx := s.opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("pattern: search cancelled: %w", err)
		}
	}
	if !s.inBox(x) {
		return math.Inf(1), nil
	}
	key := x.Key()
	if v, ok := s.cache[key]; ok {
		s.result.CacheHits++
		return v, nil
	}
	if s.result.Evaluations >= s.opts.MaxEvaluations {
		return 0, fmt.Errorf("%w (%d evaluations)", ErrBudget, s.result.Evaluations)
	}
	s.result.Evaluations++
	var v float64
	var err error
	if sp != nil {
		if f, ok := sp.futures[key]; ok {
			<-f.done
			v, err = f.v, f.err
		} else {
			v, err = s.obj(x.Clone())
		}
	} else {
		v, err = s.obj(x.Clone())
	}
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) {
		v = math.Inf(1)
	}
	s.cache[key] = v
	if s.pending != nil {
		s.pending[key] = JSONFloat(v)
	}
	return v, nil
}

// commit records a newly accepted base point, notifies OnCommit and, on
// the configured cadence, writes a checkpoint. The write follows OnCommit
// so the snapshot's Aux callback sees the caller's post-commit state.
func (s *searcher) commit(x numeric.IntVector, fx float64) error {
	s.base = x
	s.fBase = fx
	s.commits++
	s.result.BasePoints = append(s.result.BasePoints, x.Clone())
	if s.opts.OnCommit != nil {
		s.opts.OnCommit(x.Clone(), fx)
	}
	return s.writeCheckpoint(false)
}

// explore performs one exploratory pass about x (value fx): each
// coordinate in turn is increased then decreased by its step, keeping any
// strict improvement. It returns the final point and value. With Workers
// > 1 the pass's probes are evaluated speculatively in parallel first;
// the serial loop below then replays acceptance decisions against the
// speculative results, so the trajectory is identical to the serial pass.
func (s *searcher) explore(x numeric.IntVector, fx float64, step numeric.IntVector) (numeric.IntVector, float64, error) {
	var sp *speculation
	if s.sem != nil {
		sp = s.speculate(x, step)
		defer sp.wait()
	}
	cur := x.Clone()
	for i := range cur {
		orig := cur[i]
		cur[i] = orig + step[i]
		fp, err := s.eval(cur, sp)
		if err != nil {
			return nil, 0, err
		}
		if fp < fx {
			fx = fp
			continue
		}
		cur[i] = orig - step[i]
		fm, err := s.eval(cur, sp)
		if err != nil {
			return nil, 0, err
		}
		if fm < fx {
			fx = fm
			continue
		}
		cur[i] = orig
	}
	return cur, fx, nil
}

// Search minimises the objective starting from start.
func Search(obj Objective, start numeric.IntVector, opts Options) (*Result, error) {
	if obj == nil {
		return nil, errors.New("pattern: nil objective")
	}
	if len(start) == 0 {
		return nil, errors.New("pattern: empty start point")
	}
	opts, err := opts.withDefaults(len(start))
	if err != nil {
		return nil, err
	}
	s := &searcher{obj: obj, opts: opts, cache: make(map[string]float64), result: &Result{}, ckpt: opts.Checkpoint}
	if s.ckpt != nil {
		s.pending = make(map[string]JSONFloat)
	}
	defer s.closeLog()
	if opts.Workers > 1 {
		s.sem = make(chan struct{}, opts.Workers)
	}
	if rc := opts.Resume; rc != nil {
		if rc.Dim != len(start) {
			return nil, fmt.Errorf("pattern: resume checkpoint dimension %d does not match start dimension %d", rc.Dim, len(start))
		}
		// Preload the memo cache; the replayed trajectory is answered from
		// it without objective calls.
		for k, v := range rc.Visited {
			s.cache[k] = float64(v)
		}
	}

	// Clamp the start into the box.
	base := start.Clone()
	for i := range base {
		if base[i] < opts.Lo[i] {
			base[i] = opts.Lo[i]
		}
		if opts.Hi != nil && base[i] > opts.Hi[i] {
			base[i] = opts.Hi[i]
		}
	}
	s.start = base.Clone()
	fBase, err := s.eval(base, nil)
	if err != nil {
		return nil, err
	}
	if math.IsInf(fBase, 1) {
		return nil, errors.New("pattern: objective is +Inf at the start point")
	}
	s.step = opts.InitialStep.Clone()
	if err := s.commit(base, fBase); err != nil {
		// A checkpoint path that cannot be written is a configuration
		// error; failing fast beats discovering it at the first crash.
		return nil, err
	}

	// fail maps an error out of the search loop. Cancellation degrades to
	// the best-so-far result — the committed base point is always a fully
	// evaluated, feasible setting — while every other error (a broken
	// objective, an exhausted budget) aborts with no result, as before.
	fail := func(err error) (*Result, error) {
		if ctx := s.opts.Context; ctx != nil && ctx.Err() != nil {
			s.result.Best = base
			s.result.BestValue = fBase
			err = fmt.Errorf("pattern: search cancelled at best-so-far %v: %w", base, ctx.Err())
			// A final snapshot so a resumed run replays everything learned
			// up to the cancellation, not just up to the last cadence hit.
			if werr := s.writeCheckpoint(true); werr != nil {
				err = fmt.Errorf("%w (final checkpoint write failed: %v)", err, werr)
			}
			return s.result, err
		}
		return nil, err
	}

	for {
		cand, fCand, err := s.explore(base, fBase, s.step)
		if err != nil {
			return fail(err)
		}
		if fCand < fBase {
			// Pattern phase: repeat the combined move, exploring about
			// each projected point (Fig. 4.3/4.4).
			prev := base
			base, fBase = cand, fCand
			if err := s.commit(base, fBase); err != nil {
				return fail(err)
			}
			for {
				probe := base.Clone()
				for i := range probe {
					probe[i] += base[i] - prev[i]
				}
				fProbe, err := s.eval(probe, nil)
				if err != nil {
					return fail(err)
				}
				cand2, fCand2, err := s.explore(probe, fProbe, s.step)
				if err != nil {
					return fail(err)
				}
				if fCand2 < fBase {
					prev = base
					base, fBase = cand2, fCand2
					if err := s.commit(base, fBase); err != nil {
						return fail(err)
					}
					continue
				}
				break
			}
			continue
		}
		// Exploration failed: halve the step (integer floor at 1) and
		// count the reduction, as the APL program's K counter does.
		if s.halvings >= opts.MaxHalvings {
			break
		}
		s.halvings++
		for i := range s.step {
			if s.step[i] > 1 {
				s.step[i] /= 2
			}
		}
	}
	s.result.Best = base
	s.result.BestValue = fBase
	s.base, s.fBase = base, fBase
	s.doneOK = true
	if err := s.writeCheckpoint(true); err != nil {
		return s.result, fmt.Errorf("pattern: search finished but final checkpoint write failed: %w", err)
	}
	return s.result, nil
}

// ExhaustiveParallel evaluates the objective at every point of the box
// [lo, hi] across the given number of worker goroutines and returns the
// minimiser (ties broken by lattice order, matching Exhaustive). The
// objective must be safe for concurrent use — the analytic evaluators in
// this repository are pure functions of their arguments, so WINDIM's
// objectives qualify. workers < 2 falls back to the serial Exhaustive.
func ExhaustiveParallel(obj Objective, lo, hi numeric.IntVector, maxPoints, workers int) (*Result, error) {
	return ExhaustiveParallelCtx(nil, obj, lo, hi, maxPoints, workers)
}

// ExhaustiveParallelCtx is ExhaustiveParallel with cancellation: ctx (nil
// = never cancelled) is polled while scanning, and on cancellation the
// best point among the evaluations that completed is returned together
// with a non-nil error wrapping ctx.Err() (or a nil Best if nothing
// finished).
func ExhaustiveParallelCtx(ctx context.Context, obj Objective, lo, hi numeric.IntVector, maxPoints, workers int) (*Result, error) {
	if workers < 2 {
		return ExhaustiveCtx(ctx, obj, lo, hi, maxPoints)
	}
	if obj == nil {
		return nil, errors.New("pattern: nil objective")
	}
	if len(lo) == 0 || len(lo) != len(hi) {
		return nil, fmt.Errorf("pattern: box dimensions %d vs %d", len(lo), len(hi))
	}
	if maxPoints <= 0 {
		maxPoints = 1 << 20
	}
	span := numeric.NewIntVector(len(lo))
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, fmt.Errorf("pattern: empty box at dimension %d", i)
		}
		span[i] = hi[i] - lo[i]
	}
	if _, err := numeric.LatticeSize(span, maxPoints); err != nil {
		return nil, fmt.Errorf("pattern: exhaustive box too large: %w", err)
	}
	var points []numeric.IntVector
	numeric.LatticeWalk(span, func(p numeric.IntVector) {
		x := p.Clone()
		for i := range x {
			x[i] += lo[i]
		}
		points = append(points, x)
	})

	type partial struct {
		best    numeric.IntVector
		bestVal float64
		bestIdx int
		done    int // points actually evaluated (for cancelled scans)
		err     error
	}
	if workers > len(points) {
		workers = len(points)
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (len(points) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > len(points) {
			end = len(points)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			p := &parts[w]
			p.bestVal = math.Inf(1)
			p.bestIdx = -1
			for i := start; i < end; i++ {
				if ctx != nil && ctx.Err() != nil {
					p.done = i - start
					return
				}
				v, err := obj(points[i])
				if err != nil {
					p.err = err
					return
				}
				if v < p.bestVal {
					p.bestVal = v
					p.best = points[i]
					p.bestIdx = i
				}
				p.done = i - start + 1
			}
		}(w, start, end)
	}
	wg.Wait()
	res := &Result{BestValue: math.Inf(1)}
	bestIdx := -1
	cancelled := ctx != nil && ctx.Err() != nil
	for w := range parts {
		if parts[w].err != nil && !cancelled {
			return nil, parts[w].err
		}
		res.Evaluations += parts[w].done
		// Strict improvement, or equal value at an earlier lattice index,
		// reproduces the serial tie-break.
		if parts[w].bestIdx >= 0 &&
			(parts[w].bestVal < res.BestValue ||
				(parts[w].bestVal == res.BestValue && parts[w].bestIdx < bestIdx)) {
			res.BestValue = parts[w].bestVal
			res.Best = parts[w].best
			bestIdx = parts[w].bestIdx
		}
	}
	if cancelled {
		if math.IsInf(res.BestValue, 1) {
			res.Best = nil
		}
		return res, fmt.Errorf("pattern: exhaustive scan cancelled after %d evaluations: %w", res.Evaluations, ctx.Err())
	}
	return res, nil
}

// Exhaustive evaluates the objective at every point of the box [lo, hi]
// and returns the minimiser. Intended for global-optimality probes on
// small boxes; the number of points is capped at maxPoints (<= 0 means
// 1e6).
func Exhaustive(obj Objective, lo, hi numeric.IntVector, maxPoints int) (*Result, error) {
	return ExhaustiveCtx(nil, obj, lo, hi, maxPoints)
}

// ExhaustiveCtx is Exhaustive with cancellation: ctx (nil = never
// cancelled) is polled before each evaluation, and on cancellation the
// best point found so far is returned together with a non-nil error
// wrapping ctx.Err() (a nil Best if nothing was evaluated).
func ExhaustiveCtx(ctx context.Context, obj Objective, lo, hi numeric.IntVector, maxPoints int) (*Result, error) {
	if obj == nil {
		return nil, errors.New("pattern: nil objective")
	}
	if len(lo) == 0 || len(lo) != len(hi) {
		return nil, fmt.Errorf("pattern: box dimensions %d vs %d", len(lo), len(hi))
	}
	if maxPoints <= 0 {
		maxPoints = 1 << 20
	}
	span := numeric.NewIntVector(len(lo))
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, fmt.Errorf("pattern: empty box at dimension %d", i)
		}
		span[i] = hi[i] - lo[i]
	}
	if _, err := numeric.LatticeSize(span, maxPoints); err != nil {
		return nil, fmt.Errorf("pattern: exhaustive box too large: %w", err)
	}
	res := &Result{BestValue: math.Inf(1)}
	var firstErr error
	cancelled := false
	numeric.LatticeWalkUntil(span, func(p numeric.IntVector) bool {
		if ctx != nil && ctx.Err() != nil {
			cancelled = true
			return false
		}
		x := p.Clone()
		for i := range x {
			x[i] += lo[i]
		}
		res.Evaluations++
		v, err := obj(x)
		if err != nil {
			firstErr = err
			return false
		}
		if v < res.BestValue {
			res.BestValue = v
			res.Best = x
		}
		return true
	})
	if cancelled {
		return res, fmt.Errorf("pattern: exhaustive scan cancelled after %d evaluations: %w", res.Evaluations, ctx.Err())
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
