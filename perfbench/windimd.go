package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/shard/transport"
)

// The windimd-mixed workload: an open loop of jobs at a fixed rate into an
// in-process windimd server over loopback HTTP. The rate is a constant of
// the workload, never derived from a measurement; at the seed commit it
// keeps both job slots about half busy.
const (
	jobRate = 40 // jobs per second
	// senders is the number of client goroutines, and so of HTTP
	// connections, that post the generated jobs.
	senders = 2
	// drainWait bounds the wait for the last jobs after the generator
	// stops, and the server's drain.
	drainWait = 60 * time.Second
)

// jobKinds are the kinds of job the workload sends:
//
//   - redim: canada4 re-dimensioning at rates drifting around Table 4.7
//     loads, warm-started from the previous optimum;
//   - mesh: a cold generated 64-node mesh, bound by the σ-heuristic AMVA;
//   - mesh_w2: the same with a two-worker speculative search;
//   - exact: canada4 under the shared convolution oracle;
//   - shard: a sharded exhaustive search on the fake two-host fleet.
var jobKinds = []string{"redim", "mesh", "mesh_w2", "exact", "shard"}

// jobCycle is the kind of each job in a repeating cycle of 25: 60% redim,
// 20% mesh, 8% mesh_w2, 8% exact and 4% shard. A fixed cycle offers every
// run the same interleaving of light and heavy jobs, so runs differ by
// what the system does, not by the draw of the mix; the seed draws each
// job's inputs. Two meshes follow the shard job, whose two workers take
// both cores, and the other heavy jobs come every fourth slot, so that
// the median job is a plain redim job rather than one at the edge between
// the light and the heavy kinds.
var jobCycle = []string{
	"shard", "mesh", "mesh", "redim", "redim", "redim", "mesh_w2", "redim", "redim",
	"redim", "mesh", "redim", "exact", "redim", "mesh", "redim", "redim", "redim",
	"mesh_w2", "redim", "redim", "redim", "mesh", "redim", "exact",
}

// table47Loads are the symmetric per-class loads of Table 4.7 that redim
// jobs drift around: each cycle of jobCycle holds one of them, in turn,
// and every redim job in the cycle draws each class's rate within ±5% of
// it. Warm starts therefore come from a nearby optimum, except at the
// first redim job of a cycle and after an exact job.
var table47Loads = []float64{12.5, 15.5, 18, 20}

const (
	meshJobTopo = "mesh:64,64,24"
	exactSpec   = `"example":"canada4","evaluator":"exact","exact_engine":true,"max_window":7`
	shardSpec   = `"example":"canada4","kind":"shard","evaluator":"exact","exact_engine":true,"max_window":7,"shard":{"procs":2}`
)

// jobPlan is one generated job: its spec and when it is due, relative to
// the start of the measured window.
type jobPlan struct {
	id   string
	kind string
	spec []byte
	due  time.Duration
}

// planJobs draws the inputs of n jobs from seed; job i is due i/jobRate
// seconds after the start and has kind jobCycle[i mod 25].
func planJobs(seed uint64, n int) []jobPlan {
	src := rng.New(seed)
	plans := make([]jobPlan, n)
	for i := range plans {
		p := &plans[i]
		p.id = fmt.Sprintf("j%05d", i)
		p.due = time.Duration(i) * time.Second / jobRate
		p.kind = jobCycle[i%len(jobCycle)]
		var body string
		switch p.kind {
		case "redim":
			s := table47Loads[i/len(jobCycle)%len(table47Loads)]
			rates := make([]float64, 4)
			for c := range rates {
				rates[c] = s * (0.95 + 0.1*src.Float64())
			}
			rj, _ := json.Marshal(rates)
			body = fmt.Sprintf(`"example":"canada4","rates":%s`, rj)
		case "mesh", "mesh_w2":
			body = fmt.Sprintf(`"topo":%q,"topo_seed":%d`, meshJobTopo, src.Uint64())
			if p.kind == "mesh_w2" {
				body += `,"workers":2`
			}
		case "exact":
			body = exactSpec
		case "shard":
			body = shardSpec
		}
		p.spec = []byte(fmt.Sprintf(`{"id":%q,%s}`, p.id, body))
	}
	return plans
}

// daemon is an in-process windimd server behind a loopback listener.
type daemon struct {
	srv    *service.Server
	http   *httptest.Server
	client *http.Client
}

func startDaemon(spool string) (*daemon, error) {
	fleet, err := transport.NewFake([]string{"simA", "simB"}, shard.WorkerEnvMain, "")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		Spool:           spool,
		MaxJobs:         2,
		QueueDepth:      64,
		MemoryBudget:    256 << 20,
		ShardTransport:  fleet,
		ShardWorkerArgv: []string{"in-process"},
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}
	return &daemon{srv: srv, http: ts, client: client}, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.client.CloseIdleConnections()
	d.http.Close()
	return err
}

func (d *daemon) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.http.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// events reads a job's whole event feed; the server closes it once the
// job is terminal.
func (d *daemon) events(ctx context.Context, id string) ([]service.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.http.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	var out []service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("event of %s: %w", id, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// jobRun is what the client saw of one job.
type jobRun struct {
	plan   *jobPlan
	due    time.Time // wall clock, comparable with server timestamps
	sent   time.Time
	acked  time.Time
	status int
	err    error
	events []service.Event
	rec    service.Record
}

// eventAt returns the time of the job's first event of type typ.
func (j *jobRun) eventAt(typ string) (time.Time, bool) {
	for _, ev := range j.events {
		if ev.Type == typ {
			return ev.At, true
		}
	}
	return time.Time{}, false
}

// latency is the job's time from when it was due to its done event.
func (j *jobRun) latency() (time.Duration, bool) {
	at, ok := j.eventAt("done")
	if !ok {
		return 0, false
	}
	return at.Sub(j.due), true
}

// openLoop submits every plan at its due time from start, through senders
// client goroutines. A job is timed from its due time, so a stalled
// generator or sender shows as latency of the jobs behind it, and the
// generator's own lateness (send minus due) is kept per job.
func openLoop(submit func(spec []byte) (int, error), plans []jobPlan, start time.Time) []jobRun {
	runs := make([]jobRun, len(plans))
	work := make(chan *jobRun)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jr := range work {
				jr.sent = time.Now()
				jr.status, jr.err = submit(jr.plan.spec)
				jr.acked = time.Now()
			}
		}()
	}
	for i := range plans {
		due := start.Add(plans[i].due)
		time.Sleep(time.Until(due))
		runs[i] = jobRun{plan: &plans[i], due: due.Round(0)}
		work <- &runs[i]
	}
	close(work)
	wg.Wait()
	return runs
}

func (d *daemon) submit(spec []byte) (int, error) {
	resp, err := d.client.Post(d.http.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// collect waits, at most drainWait, for every accepted job to end and
// reads its event feed and journal record, one request at a time.
func (d *daemon) collect(runs []jobRun) {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	for i := range runs {
		jr := &runs[i]
		if jr.err != nil || jr.status != http.StatusAccepted {
			continue
		}
		if jr.events, jr.err = d.events(ctx, jr.plan.id); jr.err == nil {
			jr.err = d.get(ctx, "/jobs/"+jr.plan.id, &jr.rec)
		}
	}
}

// windimdSetup is one set-up of the workload: the job plan, the spool, the
// server and its listener.
func windimdSetup(e *env, n int, tag string) (*daemon, []jobPlan, error) {
	plans := planJobs(e.seed, n)
	spool := filepath.Join(e.scratch, "spool-"+tag)
	d, err := startDaemon(spool)
	return d, plans, err
}

func runWindimd(e *env) (*e2e, error) {
	res := &e2e{}
	n := int(e.seconds.Seconds() * jobRate)
	var d *daemon
	var plans []jobPlan
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		di, pi, err := windimdSetup(e, n, fmt.Sprint(i))
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		d, plans = di, pi
	}
	start := time.Now()
	runs := openLoop(d.submit, plans, start)
	d.collect(runs)
	last := start
	for i := range runs {
		if at, ok := runs[i].eventAt("done"); ok && at.After(last) {
			last = at
		}
	}
	if err := res.closeWindow(start); err != nil {
		return nil, err
	}
	// The window closes at the last job's done event, not at the end of
	// collection.
	res.wall = last.Sub(start)
	if err := d.stop(); err != nil {
		return nil, err
	}
	gates := newJobGates()
	for i := range runs {
		jr := &runs[i]
		res.attempted++
		if err := gates.check(jr); err != nil {
			res.fail("job %s (%s): %v", jr.plan.id, jr.plan.kind, err)
			continue
		}
		lat, _ := jr.latency()
		res.completed++
		res.lat = append(res.lat, ms(lat))
	}
	gates.checkAnswers(runs, &res.tally)
	late := make([]float64, len(runs))
	for i := range runs {
		late[i] = ms(runs[i].sent.Sub(runs[i].due))
	}
	fmt.Fprintf(os.Stderr, "loadgen lateness: p50 %.3f ms, max %.3f ms\n", median(late), maxOf(late))
	return res, nil
}

// jobGates holds the windimd-mixed correctness gates.
type jobGates struct {
	mu    sync.Mutex
	shard map[string]*core.Result // single-process exhaustive result per shard spec
}

func newJobGates() *jobGates { return &jobGates{shard: map[string]*core.Result{}} }

// check is the per-job state gate: accepted, ended done, not partial.
func (g *jobGates) check(jr *jobRun) error {
	switch {
	case jr.err != nil:
		return jr.err
	case jr.status != http.StatusAccepted:
		return fmt.Errorf("submission answered %d", jr.status)
	case jr.rec.State != service.StateDone:
		return fmt.Errorf("ended %s: %s", jr.rec.State, jr.rec.Error)
	case jr.rec.Result == nil:
		return fmt.Errorf("done without a result")
	case jr.rec.Result.Partial:
		return fmt.Errorf("partial result: %s", jr.rec.Result.Note)
	}
	if _, ok := jr.latency(); !ok {
		return fmt.Errorf("no done event in the feed")
	}
	return nil
}

// checkAnswers is the per-job answer gate, run after the measured window
// on both cores: every job's power matches core.Evaluate of its network at
// its windows, and every shard job is bit-identical to the single-process
// exhaustive search.
func (g *jobGates) checkAnswers(runs []jobRun, t *tally) {
	errs := make([]error, len(runs))
	parallelFor(len(runs), func(i int) {
		jr := &runs[i]
		if g.check(jr) == nil {
			errs[i] = g.answer(jr)
		}
	})
	for i, err := range errs {
		if err != nil {
			t.fail("job %s (%s): %v", runs[i].plan.id, runs[i].plan.kind, err)
		}
	}
}

func (g *jobGates) answer(jr *jobRun) error {
	parsed, err := service.ParseJob(jr.plan.spec)
	if err != nil {
		return err
	}
	got := jr.rec.Result
	if parsed.Sharded() {
		want, err := g.exhaustive(parsed)
		if err != nil {
			return err
		}
		if !numeric.IntVector(got.Windows).Equal(want.Windows) ||
			math.Float64bits(got.Power) != math.Float64bits(want.Metrics.Power) {
			return fmt.Errorf("sharded result %v / %v differs from single-process exhaustive %v / %v",
				got.Windows, got.Power, want.Windows, want.Metrics.Power)
		}
		return nil
	}
	m, err := core.Evaluate(parsed.Net, got.Windows, core.Options{Evaluator: parsed.Evaluator})
	if err != nil {
		return fmt.Errorf("evaluating returned windows: %w", err)
	}
	if !relClose(m.Power, got.Power, checkTol) {
		return fmt.Errorf("reported power %v, core.Evaluate gives %v", got.Power, m.Power)
	}
	return nil
}

// exhaustive returns the single-process exhaustive search of a shard
// job's network and box, computing it once per spec.
func (g *jobGates) exhaustive(j *service.Job) (*core.Result, error) {
	spec := j.Spec
	spec.ID = ""
	k, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	key := string(k)
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.shard[key]; r != nil {
		return r, nil
	}
	r, err := core.Dimension(j.Net, shardBaselineOptions(j))
	if err != nil {
		return nil, err
	}
	g.shard[key] = r
	return r, nil
}

func shardBaselineOptions(j *service.Job) core.Options {
	return core.Options{
		Evaluator:   j.Evaluator,
		Objective:   j.Objective,
		Search:      core.ExhaustiveSearch,
		MaxWindow:   j.Spec.MaxWindow,
		ExactEngine: j.Spec.ExactEngine,
	}
}
