package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/shard/transport"
	"repro/internal/sim"
)

// The traced run does a fixed amount of work, so every count it reports
// is exact for a given seed. It traces all three paths whatever workload
// it is named for, because each traced run reports every per-layer
// metric.
const (
	traceProblems   = 12  // dimension-mesh problems
	traceJobs       = 120 // windimd-mixed jobs per open loop
	traceYieldSpecs = 3   // mesh_w2 specs replayed for pattern.probe_yield
	traceShardRuns  = 3
	traceExhaustive = 5
	traceBatches    = 6 // netsim-faults batches, each run traced and untraced
	traceReps       = 8 // single replications on reused runners
	traceRunners    = 5
	expDraws        = 1 << 20
)

// extraSpans name work the traced run adds to a path to measure or check
// it. Tracing overhead leaves them out.
var extraSpans = map[string]bool{
	"netmodel.closed_model": true,
	"shadow.setup":          true,
	"mva.shadow":            true,
	"power.shadow":          true,
	"mva.shadow_commit":     true,
}

// layerSet collects per-layer metrics.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

func runTraced(e *env, workload string) (*report, error) {
	tr := newTracer()
	l := layerSet{}
	var t tally
	if err := traceDimension(e, tr, l, &t); err != nil {
		return nil, fmt.Errorf("dimension-mesh traced pass: %w", err)
	}
	if err := traceWindimd(e, tr, l, &t); err != nil {
		return nil, fmt.Errorf("windimd-mixed traced pass: %w", err)
	}
	if err := traceNetsim(e, tr, l, &t); err != nil {
		return nil, fmt.Errorf("netsim-faults traced pass: %w", err)
	}
	path := filepath.Join(filepath.Dir(e.scratch), fmt.Sprintf("trace-%s-%d.json", workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	for _, why := range t.reasons {
		fmt.Fprintln(os.Stderr, "FAIL:", why)
	}
	return finish(l, t)
}

// opStats reports, over the root spans named op, the mean share of their
// wall time their children cover, and their durations in milliseconds
// without the spans in extraSpans.
func opStats(tr *tracer, op string) (coverage float64, own []float64) {
	extra := map[int]time.Duration{}
	for _, s := range tr.snapshot() {
		if extraSpans[s.Name] {
			extra[s.Op] += s.dur()
		}
	}
	var shares []float64
	for _, b := range tr.breakdown(op) {
		shares = append(shares, float64(b.Covered)/float64(b.Span.dur()))
		own = append(own, ms(b.Span.dur()-extra[b.Span.ID]))
	}
	return mean(shares), own
}

// traceDimension replays the windim path with spans around each layer:
// pattern.Search over a timed Engine.ObjectiveValue with Engine.Commit on
// commit, a shadow mva solve of every candidate, then the untraced
// core.Dimension it must agree with.
func traceDimension(e *env, tr *tracer, l layerSet, t *tally) error {
	problems, err := meshProblems(e.seed, traceProblems)
	if err != nil {
		return err
	}
	var closedMS, engineMS, objUS, commitMS, solveUS, powerUS, sweeps, allocs, untraced []float64
	var evals, hits, commits, mismatches, searchMismatches int
	var tiers core.FallbackCounts
	for _, p := range problems {
		t.attempted++
		n := p.net
		nCls := len(n.Classes)
		op := tr.begin("dimension", 0)
		s := tr.begin("netmodel.closed_model", op)
		_, _, err := n.ClosedModel(fill(nCls, 1))
		closedMS = append(closedMS, ms(tr.end(s)))
		if err != nil {
			return err
		}
		s = tr.begin("core.new_engine", op)
		eng, err := core.NewEngine(n, core.Options{})
		engineMS = append(engineMS, ms(tr.end(s)))
		if err != nil {
			return err
		}
		s = tr.begin("shadow.setup", op)
		sh, err := newShadowMVA(n)
		tr.end(s)
		if err != nil {
			return err
		}
		var firstMismatch error
		search := tr.begin("pattern.search", op)
		obj := func(x numeric.IntVector) (float64, error) {
			s := tr.begin("core.objective", search)
			v, vErr := eng.ObjectiveValue(x, core.ObjNetworkPower)
			objUS = append(objUS, us(tr.end(s)))
			s = tr.begin("mva.shadow", search)
			sol, shErr := sh.solve(x)
			solveUS = append(solveUS, us(tr.end(s)))
			var shV float64
			if shErr == nil {
				sweeps = append(sweeps, float64(sol.Iterations))
				s = tr.begin("power.shadow", search)
				shV, shErr = sh.objective(sol)
				powerUS = append(powerUS, us(tr.end(s)))
			}
			if err := sameObjective(v, vErr, shV, shErr); err != nil {
				mismatches++
				if firstMismatch == nil {
					firstMismatch = fmt.Errorf("shadow mva at %v: %w", x, err)
				}
			}
			return searchValue(v, vErr)
		}
		popts := pattern.Options{
			Lo: fill(nCls, 1),
			Hi: fill(nCls, maxWindow),
			OnCommit: func(x numeric.IntVector, _ float64) {
				s := tr.begin("core.commit", search)
				eng.Commit(x)
				commitMS = append(commitMS, ms(tr.end(s)))
				s = tr.begin("mva.shadow_commit", search)
				sh.commit(x)
				tr.end(s)
				commits++
			},
		}
		sres, err := pattern.Search(obj, n.HopVector(), popts)
		tr.end(search)
		if err == nil {
			s = tr.begin("core.evaluate", op)
			_, err = eng.Evaluate(sres.Best)
			tr.end(s)
		}
		tr.end(op)
		if err != nil {
			t.fail("problem seed %d: shadow search: %v", p.seed, err)
			continue
		}
		evals += sres.Evaluations
		hits += sres.CacheHits
		fc := eng.FallbackCounts()
		for i := range tiers {
			tiers[i] += fc[i]
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			eng.ObjectiveValue(sres.Best, core.ObjNetworkPower)
		}))

		t0 := time.Now()
		ref, err := core.Dimension(n, core.Options{Workers: 1})
		untraced = append(untraced, ms(time.Since(t0)))
		switch {
		case err != nil:
			t.fail("problem seed %d: core.Dimension: %v", p.seed, err)
		case firstMismatch != nil:
			t.fail("problem seed %d: %v", p.seed, firstMismatch)
		case !ref.Windows.Equal(sres.Best) || ref.Search.Evaluations != sres.Evaluations:
			searchMismatches++
			t.fail("problem seed %d: shadow search found %v in %d evaluations, core.Dimension %v in %d",
				p.seed, sres.Best, sres.Evaluations, ref.Windows, ref.Search.Evaluations)
		}
	}
	var self []float64
	for _, b := range tr.breakdown("pattern.search") {
		self = append(self, ms(b.Self))
	}
	coverage, traced := opStats(tr, "dimension")

	l.set("pattern.evaluations", float64(evals), "count")
	l.set("pattern.cache_hits", float64(hits), "count")
	l.set("pattern.commits", float64(commits), "count")
	l.set("pattern.self_ms", median(self), "ms")
	l.set("pattern.shadow_mismatches", float64(searchMismatches), "count")
	l.set("core.new_engine_ms", median(engineMS), "ms")
	l.set("core.objective_us.p50", median(objUS), "us")
	l.set("core.objective_allocs", mean(allocs), "count")
	l.set("core.commit_ms", median(commitMS), "ms")
	l.set("core.tier.primary", float64(tiers[core.TierPrimary]), "count")
	l.set("core.tier.damped", float64(tiers[core.TierDamped]), "count")
	l.set("core.tier.linearizer", float64(tiers[core.TierLinearizer]), "count")
	l.set("core.tier.exact", float64(tiers[core.TierExact]), "count")
	l.set("mva.sweeps_per_eval", mean(sweeps), "count")
	l.set("mva.solve_us.p50", median(solveUS), "us")
	l.set("mva.shadow_mismatches", float64(mismatches), "count")
	l.set("netmodel.closed_model_ms", median(closedMS), "ms")
	l.set("power.from_solution_us.p50", median(powerUS), "us")
	l.set("trace.coverage.dimension-mesh", coverage, "ratio")
	l.set("trace.overhead_ms.dimension-mesh", median(traced)-median(untraced), "ms")
	return nil
}

// traceWindimd runs the windimd-mixed open loop twice over the same plan,
// untraced and then traced, and then the probes of the layers under it:
// speculative probe yield, the single-process exhaustive floor and
// shard.Run on the fake fleet. The traced loop's spans are built from the
// timestamps it keeps anyway, after it ends, so its overhead is the
// difference between two runs of the same code.
func traceWindimd(e *env, tr *tracer, l layerSet, t *tally) error {
	plans := planJobs(e.seed, traceJobs)
	var loops [2][]jobRun
	var stats service.Stats
	for pass := range loops {
		d, err := startDaemon(filepath.Join(e.scratch, fmt.Sprintf("trace-spool-%d", pass)))
		if err != nil {
			return err
		}
		start := time.Now()
		loops[pass] = openLoop(d.submit, plans, start)
		d.collect(loops[pass])
		if pass == 1 {
			err = d.get(context.Background(), "/stats", &stats)
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	gates := newJobGates()
	var lat [2][]float64
	for pass, runs := range loops {
		for i := range runs {
			t.attempted++
			if err := gates.check(&runs[i]); err != nil {
				t.fail("traced job %s (%s): %v", runs[i].plan.id, runs[i].plan.kind, err)
				continue
			}
			d, _ := runs[i].latency()
			lat[pass] = append(lat[pass], ms(d))
		}
		gates.checkAnswers(runs, t)
	}

	runs := loops[1]
	var submit, queue, late []float64
	run := map[string][]float64{}
	commits, warm, searches := 0, 0, 0
	for i := range runs {
		jr := &runs[i]
		late = append(late, ms(jr.sent.Sub(jr.due)))
		done, ok := jr.eventAt("done")
		if !ok {
			continue
		}
		queued, _ := jr.eventAt("queued")
		started, _ := jr.eventAt("started")
		op := tr.add("job", 0, jr.due, done)
		tr.add("loadgen.late", op, jr.due, jr.sent)
		tr.add("service.submit", op, jr.sent, jr.acked)
		tr.add("service.queue", op, queued, started)
		tr.add("service.run", op, started, done)
		submit = append(submit, ms(jr.acked.Sub(jr.sent)))
		queue = append(queue, ms(started.Sub(queued)))
		run[jr.plan.kind] = append(run[jr.plan.kind], ms(done.Sub(started)))
		for _, ev := range jr.events {
			if ev.Type == "commit" {
				commits++
			}
		}
		if jr.plan.kind != "shard" {
			searches++
			if jr.rec.Result != nil && jr.rec.Result.WarmStarted {
				warm++
			}
		}
	}
	qt, err := tailOf(queue)
	if err != nil {
		return err
	}
	coverage, _ := opStats(tr, "job")
	l.set("service.submit_ms.p50", median(submit), "ms")
	l.set("service.queue_ms.p50", median(queue), "ms")
	l.set("service.queue_ms.tail", qt.Value, "ms")
	fmt.Printf("service.queue_ms.tail is %v\n", qt)
	for _, k := range jobKinds {
		l.set("service.run_ms."+k, median(run[k]), "ms")
	}
	l.set("service.commit_events", float64(commits), "count")
	l.set("service.warm_start_share", float64(warm)/float64(max(searches, 1)), "ratio")
	l.set("service.rejected", float64(stats.RejectedQueue+stats.RejectedMem), "count")
	l.set("service.retries", float64(stats.Retries), "count")
	l.set("core.oracle.count", float64(stats.OracleCache.Oracles), "count")
	l.set("core.oracle.bytes", float64(stats.OracleCache.Bytes), "bytes")
	l.set("core.oracle.evictions", float64(stats.OracleCache.Evictions), "count")
	l.set("loadgen.late_ms.p50", median(late), "ms")
	l.set("loadgen.late_ms.max", maxOf(late), "ms")
	l.set("trace.coverage.windimd-mixed", coverage, "ratio")
	l.set("trace.overhead_ms.windimd-mixed", median(lat[1])-median(lat[0]), "ms")

	if err := traceProbeYield(tr, plans, l); err != nil {
		return err
	}
	return traceShard(e, tr, l, t)
}

// traceProbeYield replays mesh_w2 specs through pattern.Search with two
// speculative workers and reports search evaluations per engine
// objective call.
func traceProbeYield(tr *tracer, plans []jobPlan, l layerSet) error {
	var evals, calls int64
	replayed := 0
	for i := range plans {
		if plans[i].kind != "mesh_w2" || replayed == traceYieldSpecs {
			continue
		}
		replayed++
		j, err := service.ParseJob(plans[i].spec)
		if err != nil {
			return err
		}
		n := j.Net
		eng, err := core.NewEngine(n, core.Options{Workers: 2})
		if err != nil {
			return err
		}
		var c atomic.Int64
		obj := func(x numeric.IntVector) (float64, error) {
			c.Add(1)
			return searchValue(eng.ObjectiveValue(x, core.ObjNetworkPower))
		}
		op := tr.begin("pattern.search_w2", 0)
		res, err := pattern.Search(obj, n.HopVector(), pattern.Options{
			Lo:       fill(len(n.Classes), 1),
			Hi:       fill(len(n.Classes), maxWindow),
			Workers:  2,
			OnCommit: func(x numeric.IntVector, _ float64) { eng.Commit(x) },
		})
		tr.end(op)
		if err != nil {
			return err
		}
		evals += int64(res.Evaluations)
		calls += c.Load()
	}
	if calls == 0 {
		return fmt.Errorf("no mesh_w2 spec to replay")
	}
	l.set("pattern.probe_yield", float64(evals)/float64(calls), "ratio")
	return nil
}

// traceShard times the single-process exhaustive search of the shard
// spec's box and shard.Run over the fake two-host fleet, outside the
// daemon.
func traceShard(e *env, tr *tracer, l layerSet, t *tally) error {
	j, err := service.ParseJob([]byte("{" + shardSpec + "}"))
	if err != nil {
		return err
	}
	copts := shardBaselineOptions(j)
	var exhaustive, runs []float64
	var base *core.Result
	for i := 0; i < traceExhaustive; i++ {
		op := tr.begin("core.exhaustive", 0)
		r, err := core.Dimension(j.Net, copts)
		exhaustive = append(exhaustive, ms(tr.end(op)))
		if err != nil {
			return err
		}
		base = r
	}
	evals := 0
	for i := 0; i < traceShardRuns; i++ {
		fleet, err := transport.NewFake([]string{"simA", "simB"}, shard.WorkerEnvMain, "")
		if err != nil {
			return err
		}
		t.attempted++
		op := tr.begin("shard.run", 0)
		r, err := shard.Run(j.Net, copts, shard.Options{
			Dir:        filepath.Join(e.scratch, fmt.Sprintf("trace-shard-%d", i)),
			WorkerArgv: []string{"in-process"},
			Transport:  fleet,
			Procs:      j.Spec.Shard.Procs,
			Axis:       -1,
			MaxRetries: -1,
		})
		runs = append(runs, ms(tr.end(op)))
		if err != nil {
			return err
		}
		evals = r.Evaluations
		if !r.Windows.Equal(base.Windows) || math.Float64bits(r.Metrics.Power) != math.Float64bits(base.Metrics.Power) {
			t.fail("shard.Run found %v / %v, single-process exhaustive %v / %v",
				r.Windows, r.Metrics.Power, base.Windows, base.Metrics.Power)
		}
	}
	l.set("core.exhaustive_ms", median(exhaustive), "ms")
	l.set("shard.run_ms", median(runs), "ms")
	l.set("shard.evaluations", float64(evals), "count")
	l.set("shard.overhead_ms", median(runs)-median(exhaustive), "ms")
	return nil
}

// expSink keeps the exponential draws live.
var expSink float64

// traceNetsim times the simulator's layers: runner construction, single
// replications on a reused runner under both schedulers (which must agree
// event for event), allocations, batches traced and untraced, and the
// exponential sampler.
func traceNetsim(e *env, tr *tracer, l layerSet, t *tally) error {
	n, seeds, err := netsimSetup(e.seed, traceBatches)
	if err != nil {
		return err
	}
	cfg := netsimConfig()
	var newRunner []float64
	for i := 0; i < traceRunners; i++ {
		op := tr.begin("sim.new_runner", 0)
		_, err := sim.NewRunner(n, cfg)
		newRunner = append(newRunner, ms(tr.end(op)))
		if err != nil {
			return err
		}
	}
	cal, err := sim.NewRunner(n, cfg)
	if err != nil {
		return err
	}
	hcfg := cfg
	hcfg.Scheduler = sim.SchedulerHeap
	heap, err := sim.NewRunner(n, hcfg)
	if err != nil {
		return err
	}
	var runMS []float64
	var events int64
	var calTime, heapTime time.Duration
	for i := 0; i < traceReps; i++ {
		seed := rng.SubSeed(seeds[0], uint64(i))
		t.attempted++
		op := tr.begin("replication", 0)
		s := tr.begin("sim.run", op)
		a, err := cal.Run(seed)
		d := tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("sim.run_heap", op)
		b, err := heap.Run(seed)
		dh := tr.end(s)
		tr.end(op)
		if err != nil {
			return err
		}
		if fa, fb := fmt.Sprintf("%+v", *a), fmt.Sprintf("%+v", *b); fa != fb {
			t.fail("replication seed %d: heap and calendar schedulers disagree", seed)
		}
		runMS = append(runMS, ms(d))
		events += a.Events
		calTime += d
		heapTime += dh
	}
	allocs := testing.AllocsPerRun(2, func() { cal.Run(seeds[0]) })

	var traced, untraced, eff []float64
	var batchEvents int64
	var batchTime time.Duration
	for _, sd := range seeds {
		c := cfg
		c.Seed = sd
		t.attempted += 2
		t0 := time.Now()
		plain, err := sim.RunReplications(context.Background(), n, c, batchReps, batchWorkers)
		untraced = append(untraced, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		op := tr.begin("batch", 0)
		s := tr.begin("sim.run_replications", op)
		b, err := sim.RunReplications(context.Background(), n, c, batchReps, batchWorkers)
		wall := tr.end(s)
		traced = append(traced, ms(tr.end(op)))
		if err == nil {
			err = checkBatch(b)
		}
		if err != nil {
			return err
		}
		if batchFingerprint(plain) != batchFingerprint(b) {
			t.fail("batch seed %d: two runs of the same batch differ", sd)
		}
		var single time.Duration
		for _, r := range b.Reps {
			batchEvents += r.Result.Events
			t0 := time.Now()
			if _, err := cal.Run(r.Seed); err != nil {
				return err
			}
			single += time.Since(t0)
		}
		batchTime += wall
		eff = append(eff, float64(single)/float64(batchWorkers*wall))
	}

	src := rng.New(e.seed)
	var expNS []float64
	for i := 0; i < traceRunners; i++ {
		t0 := time.Now()
		for k := 0; k < expDraws; k++ {
			expSink += src.Exp(1.5)
		}
		expNS = append(expNS, float64(time.Since(t0).Nanoseconds())/expDraws)
	}
	coverage, _ := opStats(tr, "batch")
	l.set("sim.new_runner_ms", median(newRunner), "ms")
	l.set("sim.run_ms.p50", median(runMS), "ms")
	l.set("sim.ns_per_event", float64(calTime.Nanoseconds())/float64(events), "ns")
	l.set("sim.events_per_rep", float64(events)/traceReps, "count")
	l.set("sim.allocs_per_rep", allocs, "count")
	l.set("sim.scheduler.heap_ns_per_event", float64(heapTime.Nanoseconds())/float64(events), "ns")
	l.set("sim.parallel_efficiency", median(eff), "ratio")
	l.set("sim.events_per_s", float64(batchEvents)/batchTime.Seconds(), "1/s")
	l.set("rng.exp_ns", median(expNS), "ns")
	l.set("trace.coverage.netsim-faults", coverage, "ratio")
	l.set("trace.overhead_ms.netsim-faults", median(traced)-median(untraced), "ms")
	return nil
}
