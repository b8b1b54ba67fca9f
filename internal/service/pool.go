package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/shard"
)

// Cancellation causes. The runner distinguishes who killed an attempt:
// a drain leaves the job in the journal for the next daemon to resume, a
// user cancel retires it, a deadline converts best-so-far into a partial
// result, and a test crash abandons everything mid-flight.
var (
	errDrain    = errors.New("service: draining")
	errCrash    = errors.New("service: crash")
	errCanceled = errors.New("service: canceled by request")
	errDeadline = errors.New("service: job deadline exceeded")
	errPanic    = errors.New("service: evaluator panic")
)

// transientErr reports whether a failed attempt is worth retrying:
// numerical instability, non-convergence, scenario-quorum aborts (often
// watchdog trips under load), evaluator panics, and exhausted shard
// fault budgets (a re-run over the same spool recovers finished slabs
// and retries only the remainder) can all clear on a fresh attempt;
// spec errors and infeasible networks cannot.
func transientErr(err error) bool {
	return errors.Is(err, convolution.ErrUnstable) ||
		errors.Is(err, mva.ErrNotConverged) ||
		errors.Is(err, core.ErrQuorum) ||
		errors.Is(err, shard.ErrBudget) ||
		errors.Is(err, errPanic)
}

// BackoffDelay is the exponential backoff before retry attempt n (1-based
// count of recorded retries): base 100ms doubling per retry, capped at
// 5s, plus up to 50% uniform jitter so a burst of failing jobs does not
// retry in lockstep. Negative counts clamp to zero. The implementation
// lives in internal/backoff, shared with the sharded-search coordinator
// (internal/shard), which paces worker relaunches and host-blacklist
// probes with the same discipline.
func BackoffDelay(retries int) time.Duration { return backoff.Delay(retries) }

// worker is one slot of the bounded pool: it drains the queue until the
// server context dies (drain or crash).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.queuedGauge.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob drives one job through attempts, retries and terminal states.
// Every fault is contained to this job: panics are recovered per attempt,
// transient errors retry with backoff (recorded in the journal), and only
// a drain or crash returns with the job still live — deliberately, so the
// next daemon resumes it.
func (s *Server) runJob(j *job) {
	if s.ctx.Err() != nil {
		return // drained while queued; the record stays queued
	}
	j.mu.Lock()
	if j.rec.State.Terminal() {
		j.mu.Unlock()
		return // canceled while queued
	}
	j.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	maxRetries := s.cfg.MaxRetries
	if j.parsed.Spec.MaxRetries != nil {
		maxRetries = *j.parsed.Spec.MaxRetries
	}
	for {
		// A shard job's resumable state is its coordinator spool (keyed by
		// the durable manifest), a dimension job's its search checkpoint.
		resumable := s.journal.CheckpointPath(j.id)
		if j.parsed.Sharded() {
			resumable = shard.ManifestPath(s.journal.ShardDir(j.id))
		}
		resume := false
		if _, err := os.Stat(resumable); err == nil {
			resume = true
		}
		j.mu.Lock()
		if j.rec.State.Terminal() {
			j.mu.Unlock()
			return
		}
		if j.userCanceled {
			j.mu.Unlock()
			s.finishTerminal(j, StateCanceled, errCanceled.Error())
			return
		}
		j.rec.Attempts++
		j.rec.State = StateRunning
		attempt := j.rec.Attempts
		j.mu.Unlock()
		if err := s.journalWrite(j); err != nil {
			s.logf("job %s: journal: %v", j.id, err)
		}
		typ := "started"
		if resume {
			typ = "resumed"
			s.resumedTotal.Add(1)
		}
		j.emit(Event{Type: typ, Attempt: attempt})

		res, err := s.runAttempt(j, resume)
		if err == nil {
			s.finishDone(j, res)
			return
		}
		switch {
		case errors.Is(err, errCrash), errors.Is(err, errDrain):
			// The journal still says running; Drain rewrites it to queued,
			// a crash leaves it for the restart scan. Either way the next
			// daemon resumes from the checkpoint.
			return
		case errors.Is(err, errCanceled):
			s.finishTerminal(j, StateCanceled, err.Error())
			return
		}
		j.mu.Lock()
		retries := len(j.rec.Retries)
		j.mu.Unlock()
		if !transientErr(err) || retries >= maxRetries {
			s.finishTerminal(j, StateFailed, err.Error())
			return
		}
		delay := BackoffDelay(retries)
		j.mu.Lock()
		j.rec.Retries = append(j.rec.Retries, Retry{
			Attempt:   attempt,
			Error:     err.Error(),
			BackoffMS: delay.Milliseconds(),
			At:        time.Now().UTC(),
		})
		j.mu.Unlock()
		s.retriesTotal.Add(1)
		if werr := s.journalWrite(j); werr != nil {
			s.logf("job %s: journal: %v", j.id, werr)
		}
		j.emit(Event{Type: "retry", Attempt: attempt, Error: err.Error()})
		select {
		case <-time.After(delay):
		case <-s.ctx.Done():
			return
		}
	}
}

// runAttempt executes one attempt of the job under its own context, with
// panic containment. A nil error means res is the job's outcome (possibly
// a partial, deadline-bounded one); otherwise the error is already
// resolved to its cancellation cause where one applies.
func (s *Server) runAttempt(j *job, resume bool) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsTotal.Add(1)
			res, err = nil, fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	ctx, cancel := context.WithCancelCause(s.ctx)
	defer cancel(nil)
	if d := j.parsed.timeout(s.cfg.JobTimeout); d > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeoutCause(ctx, d, errDeadline)
		defer tcancel()
	}
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.userCanceled
	start := append(numeric.IntVector(nil), j.rec.Start...)
	if j.rec.Start == nil {
		start = nil
	}
	j.mu.Unlock()
	if canceled {
		// A DELETE raced the attempt start before the cancel handle was
		// installed; honour it now.
		cancel(errCanceled)
	}
	defer func() {
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
	}()

	if j.parsed.Sharded() {
		// The sharded coordinator has its own resume discipline: re-running
		// over the per-job spool recovers finished slabs, adopts live
		// leases, and resumes the rest from their checkpoints.
		res, err = s.dimensionSharded(j, ctx)
		if err == nil {
			res.Resumed = resume
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, err
	}

	opts := s.searchOptions(j, ctx, start)
	if resume {
		opts.ResumePath = s.journal.CheckpointPath(j.id)
	}
	res, err = s.dimension(j, opts)
	if err != nil && errors.Is(err, core.ErrResume) {
		// The checkpoint is stale or torn beyond use (e.g. written by an
		// older binary). Losing the search prefix beats losing the job.
		s.logf("job %s: discarding unusable checkpoint: %v", j.id, err)
		j.mu.Lock()
		j.ckptDiscarded++
		j.mu.Unlock()
		s.ckptDiscardedTotal.Add(1)
		s.journal.RetireCheckpoint(j.id)
		opts.ResumePath = ""
		res, err = s.dimension(j, opts)
	}
	if err == nil {
		res.Resumed = resume
		j.mu.Lock()
		res.WarmStarted = j.rec.WarmStart
		j.mu.Unlock()
		return res, nil
	}
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		if errors.Is(cause, errDeadline) && res != nil && len(res.Windows) > 0 {
			// The deadline expired but the search had committed a base
			// point: ship the best-so-far answer, marked partial, instead
			// of failing a job the caller bounded on purpose.
			res.Partial = true
			res.Note = errDeadline.Error()
			res.Resumed = resume
			return res, nil
		}
		return nil, cause
	}
	return nil, err
}

// searchOptions assembles the core options of one attempt.
func (s *Server) searchOptions(j *job, ctx context.Context, start numeric.IntVector) core.Options {
	workers := j.parsed.Spec.Workers
	if workers > s.cfg.MaxSearchWorkers {
		workers = s.cfg.MaxSearchWorkers
	}
	every := j.parsed.Spec.CheckpointEvery
	if every <= 0 {
		every = s.cfg.CheckpointEvery
	}
	opts := core.Options{
		Evaluator:       j.parsed.Evaluator,
		Objective:       j.parsed.Objective,
		Search:          core.PatternSearch,
		InitialWindows:  start,
		MaxWindow:       j.parsed.Spec.MaxWindow,
		Workers:         workers,
		ExactEngine:     j.parsed.Spec.ExactEngine,
		EvalTimeout:     j.parsed.evalTimeout(s.cfg.EvalTimeout),
		DegradeAfter:    j.parsed.Spec.DegradeAfter,
		MinScenarios:    j.parsed.Spec.MinScenarios,
		Context:         ctx,
		CheckpointPath:  s.journal.CheckpointPath(j.id),
		CheckpointEvery: every,
		OnCommit: func(x numeric.IntVector, fx float64) {
			ev := Event{Type: "commit", Windows: append([]int(nil), x...)}
			if fx > 0 && !math.IsInf(fx, 0) && !math.IsNaN(fx) {
				ev.Power = 1 / fx
			}
			j.emit(ev)
		},
	}
	if opts.ExactEngine {
		opts.Oracles = s.oracles
	}
	return opts
}

// dimension runs the search itself — plain or robust — and folds the
// outcome into a JobResult. On a cancelled search with a best-so-far
// point, the partial result is returned ALONGSIDE the error, matching
// core's contract; runAttempt decides what to do with the pair.
func (s *Server) dimension(j *job, opts core.Options) (*JobResult, error) {
	if j.parsed.Robust() {
		rr, err := core.DimensionRobust(j.parsed.Net, j.parsed.Scenarios, j.parsed.Kind, opts)
		if rr == nil {
			return nil, err
		}
		res := &JobResult{
			Windows:          append([]int(nil), rr.Windows...),
			Power:            rr.WeightedPower,
			NonConverged:     rr.NonConverged,
			FallbacksRescued: rr.Fallbacks.Rescued(),
			WatchdogTrips:    rr.WatchdogTrips,
			WorstPower:       rr.WorstPower,
		}
		if rr.Search != nil {
			res.Evaluations = rr.Search.Evaluations
			res.CacheHits = rr.Search.CacheHits
		}
		if rr.WorstScenario >= 0 && rr.WorstScenario < len(j.parsed.Scenarios) {
			res.WorstScenario = j.parsed.Scenarios[rr.WorstScenario].Name
		}
		for _, d := range rr.Degraded {
			res.Degraded = append(res.Degraded, fmt.Sprintf("%s: %s", d.Name, d.Reason))
		}
		return res, err
	}
	r, err := core.Dimension(j.parsed.Net, opts)
	if r == nil {
		return nil, err
	}
	res := &JobResult{
		Windows:          append([]int(nil), r.Windows...),
		NonConverged:     r.NonConverged,
		FallbacksRescued: r.Fallbacks.Rescued(),
		WatchdogTrips:    r.WatchdogTrips,
	}
	if r.Metrics != nil {
		res.Power = r.Metrics.Power
		res.Throughput = r.Metrics.Throughput
		res.Delay = r.Metrics.Delay
	}
	if r.Search != nil {
		res.Evaluations = r.Search.Evaluations
		res.CacheHits = r.Search.CacheHits
	}
	return res, err
}

// finishDone retires a successfully finished job: journal the result,
// drop the checkpoint, feed the warm-start index, and release oracle
// memory down to the budget now that the job no longer pins its lattice.
func (s *Server) finishDone(j *job, res *JobResult) {
	j.mu.Lock()
	j.rec.State = StateDone
	j.rec.Result = res
	j.rec.Error = ""
	j.mu.Unlock()
	if err := s.journalWrite(j); err != nil {
		s.logf("job %s: journal: %v", j.id, err)
	}
	s.journal.RetireCheckpoint(j.id)
	s.accountResult(res)
	if !res.Partial && len(res.Windows) > 0 && j.structHash != "" {
		s.mu.Lock()
		s.warm[j.structHash] = append(numeric.IntVector(nil), res.Windows...)
		s.mu.Unlock()
	}
	s.releasePin(j)
	s.oracles.TrimToBudget()
	j.emit(Event{Type: "done", Windows: append([]int(nil), res.Windows...), Power: res.Power})
	// close is the completion barrier: every effect of the job — journal
	// record, checkpoint retirement, warm index, budget release — is
	// visible before the feed closes.
	j.close()
}

// finishTerminal retires a job in a non-done terminal state.
func (s *Server) finishTerminal(j *job, state State, msg string) {
	j.mu.Lock()
	j.rec.State = state
	j.rec.Error = msg
	j.mu.Unlock()
	if err := s.journalWrite(j); err != nil {
		s.logf("job %s: journal: %v", j.id, err)
	}
	s.journal.RetireCheckpoint(j.id)
	s.releasePin(j)
	s.oracles.TrimToBudget()
	j.emit(Event{Type: string(state), Error: msg})
	j.close()
}

// accountResult folds a finished job's resilience counters into the
// server totals /stats reports.
func (s *Server) accountResult(res *JobResult) {
	s.watchdogTotal.Add(res.WatchdogTrips)
	s.fallbackTotal.Add(res.FallbacksRescued)
	s.degradedTotal.Add(int64(len(res.Degraded)))
}
