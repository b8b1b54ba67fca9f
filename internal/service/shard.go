package service

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/shard"
)

// shardWorkerArgv resolves the worker command of kind:"shard" jobs: the
// configured override, or this very executable in worker mode (windimd
// dispatches its hidden -shard-worker flag before anything else).
func (s *Server) shardWorkerArgv() ([]string, error) {
	if len(s.cfg.ShardWorkerArgv) > 0 {
		return s.cfg.ShardWorkerArgv, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("service: resolving shard worker binary: %w", err)
	}
	return []string{exe, "-shard-worker"}, nil
}

// dimensionSharded runs one attempt of a kind:"shard" job through the
// sharded-search coordinator (internal/shard). The coordinator's spool
// lives next to the job's journal record, so the daemon's own resume
// machinery composes with the coordinator's: a drain, crash, or
// transient failure re-runs the coordinator over the same spool, which
// recovers finished slabs, adopts live leases, and resumes interrupted
// slabs from their checkpoints — converging to the same bit-identical
// result an uninterrupted run would have produced.
func (s *Server) dimensionSharded(j *job, ctx context.Context) (*JobResult, error) {
	argv, err := s.shardWorkerArgv()
	if err != nil {
		return nil, err
	}
	workers := j.parsed.Spec.Workers
	if workers > s.cfg.MaxSearchWorkers {
		workers = s.cfg.MaxSearchWorkers
	}
	copts := core.Options{
		Evaluator:   j.parsed.Evaluator,
		Objective:   j.parsed.Objective,
		Search:      core.ExhaustiveSearch,
		MaxWindow:   j.parsed.Spec.MaxWindow,
		Workers:     workers,
		ExactEngine: j.parsed.Spec.ExactEngine,
	}
	sopts := shard.Options{
		Dir:        s.journal.ShardDir(j.id),
		WorkerArgv: argv,
		Transport:  s.cfg.ShardTransport,
		Axis:       -1,
		MaxRetries: -1, // coordinator default
		Context:    ctx,
		OnEvent: func(ev event.Event) {
			// The coordinator's events go into the job's feed as they are,
			// and into the log as one rendered line each.
			s.logf("job %s: %v", j.id, j.feed.Emit(ev))
		},
	}
	if sp := j.parsed.Spec.Shard; sp != nil {
		sopts.Procs = sp.Procs
		sopts.Slabs = sp.Slabs
		sopts.AllowLost = sp.AllowLost
		sopts.MaxHostsLost = sp.MaxHostsLost
		if sp.Axis != nil {
			sopts.Axis = *sp.Axis
		}
		if sp.SlabRetries != nil {
			sopts.MaxRetries = *sp.SlabRetries
		}
		sopts.LeaseTTL = time.Duration(sp.LeaseTTLMS) * time.Millisecond
		sopts.SlabDeadline = time.Duration(sp.SlabDeadlineMS) * time.Millisecond
	}
	res, err := shard.Run(j.parsed.Net, copts, sopts)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Windows:      append([]int(nil), res.Windows...),
		Evaluations:  res.Evaluations,
		NonConverged: res.NonConverged,
	}
	if res.Metrics != nil {
		out.Power = res.Metrics.Power
		out.Throughput = res.Metrics.Throughput
		out.Delay = res.Metrics.Delay
	}
	// Lost slabs and hosts surface through the same degradation channel
	// robust jobs use, so /stats and job records need no new vocabulary.
	for _, d := range res.Degraded {
		out.Degraded = append(out.Degraded, fmt.Sprintf("slab %d: %s", d.Slab, d.Reason))
	}
	for _, h := range res.HostsLost {
		out.Degraded = append(out.Degraded, fmt.Sprintf("host %s: abandoned, slabs redistributed", h))
	}
	return out, nil
}
