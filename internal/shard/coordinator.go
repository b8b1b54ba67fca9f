package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/shard/transport"
)

// ErrBudget marks a run failed by an exhausted fault budget — slabs
// lost past -allow-lost, hosts lost past -max-hosts-lost, or no host
// left at all. That is infrastructure trouble, not a bad search:
// re-running over the same spool recovers every finished slab and
// retries only the remainder, which is why windimd treats it as a
// transient failure worth a retry.
var ErrBudget = errors.New("shard: fault budget exhausted")

// Options configures the sharded-search coordinator.
type Options struct {
	// Dir is the spool directory (created if missing). Re-running over a
	// spool that already holds this search's manifest resumes it:
	// completed slab results are recovered without relaunch, slabs whose
	// lease is still live are adopted (watched, not double-launched), and
	// partial slabs resume from their checkpoints. A spool holding a
	// DIFFERENT search's manifest is an error, never silently overwritten.
	Dir string
	// WorkerArgv is the command line launched per slab (argv[0] plus
	// args), e.g. {"/usr/bin/windim", "-shard-worker"}. The slab
	// assignment travels in the environment (EnvDir, EnvSlab, EnvEpoch,
	// EnvLeaseTTL). On remote transports the path must resolve on the
	// worker host.
	WorkerArgv []string
	// ExtraEnv entries are appended to the contract environment (later
	// entries win), after any SHARD_FAULT already present — the fault
	// hook flows from the coordinator's own environment by default.
	ExtraEnv []string
	// Transport launches workers; nil means the local transport
	// (children of this process on this machine).
	Transport transport.Transport
	// Procs bounds concurrently running workers; <= 0 means 2.
	Procs int
	// Slabs is the partition arity; <= 0 means 2×Procs (clamped to the
	// axis width so no slab is empty).
	Slabs int
	// Axis is the class axis to partition; -1 selects the widest axis of
	// the box (ties to the lowest index).
	Axis int
	// MaxRetries bounds relaunches per slab beyond the first attempt;
	// < 0 means the default (2). A slab failing MaxRetries+1 attempts is
	// lost.
	MaxRetries int
	// AllowLost is the degradation quota: up to this many lost slabs are
	// tolerated — recorded in Result.Degraded with their reasons, the
	// merge proceeding over the surviving slabs (the quorum guard of
	// DimensionRobust, applied to slabs). Beyond it the run fails.
	AllowLost int
	// MaxHostsLost is the host degradation quota: up to this many hosts
	// may be abandoned for good (repeated launch failures or machine
	// loss) with their work redistributed over the survivors. Beyond it —
	// or with no host left at all — the run fails.
	MaxHostsLost int
	// LeaseTTL is the slab lease renewal deadline handed to workers;
	// <= 0 means DefaultLeaseTTL. It bounds both the zombie window (a
	// partitioned worker self-terminates once it cannot renew for this
	// long) and the adoption wait after a coordinator restart.
	LeaseTTL time.Duration
	// SlabDeadline is the per-stride progress deadline: a worker whose
	// heartbeat does not advance within it is presumed hung, killed, and
	// its slab reassigned (counting against the retry budget). <= 0
	// means 2 minutes.
	SlabDeadline time.Duration
	// KillGrace bounds how long a kill waits for the worker's exit. A
	// worker that does not exit within it (its host is partitioned away;
	// the kill cannot reach it) is abandoned: the attempt is superseded,
	// the slab relaunched under a higher epoch, and the remnant left for
	// the lease fence to terminate. <= 0 means 10 seconds.
	KillGrace time.Duration
	// PollEvery is the heartbeat/retry poll cadence; <= 0 means 50ms.
	PollEvery time.Duration
	// Progress, when non-nil, receives the NDJSON event stream (one
	// flushed line per event).
	Progress io.Writer
	// OnEvent, when non-nil, receives every event in-process (windimd
	// forwards them into its job event feed).
	OnEvent func(Event)
	// Context, when non-nil, bounds the run: on cancellation the
	// coordinator drains — terminates every live worker so each
	// checkpoints its current slab — and returns the cause.
	Context context.Context
	// Logf, when non-nil, receives human-oriented progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) fillDefaults() {
	if o.Transport == nil {
		o.Transport = transport.NewLocal()
	}
	if o.Procs <= 0 {
		o.Procs = 2
	}
	if o.Slabs <= 0 {
		o.Slabs = 2 * o.Procs
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 2
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.SlabDeadline <= 0 {
		o.SlabDeadline = 2 * time.Minute
	}
	if o.KillGrace <= 0 {
		o.KillGrace = 10 * time.Second
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 50 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Host health thresholds: consecutive infrastructure failures before a
// host is blacklisted (with backoff and a single recovery probe per
// expiry), and before it is abandoned for good.
const (
	hostDownAfter = 3
	hostLostAfter = 6
)

// Degraded records one slab abandoned after exhausting its retry
// budget, mirroring core.RobustResult's degradation reporting.
type Degraded struct {
	Slab   int    `json:"slab"`
	Reason string `json:"reason"`
}

// Result is the merged outcome of a sharded run.
type Result struct {
	// Windows minimises the objective over every surviving slab;
	// BestValue is its objective value (1/power for the power
	// objectives). Bit-identical to the single-process exhaustive run
	// when no slab was lost.
	Windows   numeric.IntVector
	BestValue float64
	// Metrics is the full power evaluation at Windows.
	Metrics *power.Metrics
	// Evaluations and NonConverged total over all slabs and attempts.
	Evaluations  int
	NonConverged int
	// Slabs and Axis echo the partition.
	Slabs int
	Axis  int
	// Recovered counts slabs satisfied by results already in the spool
	// (a previous run's work); Adopted counts slabs whose live worker a
	// restarted coordinator watched to completion instead of
	// double-launching; Retries counts failed attempts that were
	// relaunched; Reassigned counts deadline kills; Superseded counts
	// unreachable workers abandoned after the kill grace; Fenced counts
	// workers that self-terminated on lost lease ownership; Quarantined
	// counts torn/mismatched/stale-epoch result files renamed aside.
	Recovered   int
	Adopted     int
	Retries     int
	Reassigned  int
	Superseded  int
	Fenced      int
	Quarantined int
	// Degraded lists lost slabs (within the AllowLost quota); HostsLost
	// lists hosts abandoned for good (within the MaxHostsLost quota).
	Degraded  []Degraded
	HostsLost []string
}

// Slab lifecycle.
const (
	slabPending = iota
	slabRunning
	slabDone
	slabLost
	// slabAdopted: a restarted coordinator found a live lease — some
	// worker (launched by a previous incarnation) still owns the slab.
	// The coordinator watches for its result or its lease expiry instead
	// of double-launching.
	slabAdopted
)

// Run executes the sharded exhaustive search: plan the partition, write
// the manifest durably, launch up to Procs workers across the
// transport's hosts, supervise them (lease epochs, heartbeats,
// deadlines, retries with backoff.Delay pacing, host health,
// quarantine of torn or stale-epoch results), and merge the slab optima
// deterministically.
func Run(n *netmodel.Network, copts core.Options, opts Options) (*Result, error) {
	opts.fillDefaults()
	if len(opts.WorkerArgv) == 0 {
		return nil, fmt.Errorf("shard: no worker command")
	}
	if len(opts.Transport.Hosts()) == 0 {
		return nil, fmt.Errorf("shard: transport %s has no hosts", opts.Transport.Name())
	}
	if copts.Search != core.ExhaustiveSearch {
		return nil, fmt.Errorf("shard: only the exhaustive search shards (set Options.Search explicitly)")
	}
	if copts.BufferLimits != nil {
		return nil, fmt.Errorf("shard: BufferLimits are not carried by the manifest; apply them in a single-process run")
	}
	if copts.EvalTimeout > 0 {
		return nil, fmt.Errorf("shard: EvalTimeout breaks cross-process reproducibility; the coordinator's SlabDeadline handles stuck workers")
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	c := &coordinator{opts: opts, ctx: ctx, ev: newEventLog(opts.Progress, opts.OnEvent)}
	for _, h := range opts.Transport.Hosts() {
		c.hosts = append(c.hosts, hostCtl{name: h})
	}
	m, data, err := c.plan(n, copts)
	if err != nil {
		return nil, err
	}
	c.m, c.hash = m, Hash(data)
	return c.supervise(n, copts)
}

type coordinator struct {
	opts Options
	ctx  context.Context
	ev   *eventLog
	m    *Manifest
	hash string

	slabs    []slabCtl
	hosts    []hostCtl
	nextHost int
	res      Result
}

// slabCtl is the coordinator-side state of one slab.
type slabCtl struct {
	status    int
	attempts  int // launches so far
	failures  int // failed attempts (crash, torn result, deadline kill)
	epoch     int // highest fencing epoch granted (0: never launched)
	notBefore time.Time
	result    *SlabResult
	att       *attempt
}

// attempt is one live worker.
type attempt struct {
	handle   transport.Handle
	host     string
	epoch    int
	lastHB   string
	lastSeen time.Time
	killed   bool      // deadline-killed by us, not a worker fault per se
	killedAt time.Time // when the kill was issued (bounds the exit wait)
}

// hostCtl is the coordinator's health record of one transport host.
type hostCtl struct {
	name  string
	fails int       // consecutive infrastructure failures
	until time.Time // blacklisted until (zero: healthy or probing)
	lost  bool      // abandoned for good
}

type workerExit struct {
	slab int
	att  *attempt
	err  error
}

// plan builds (or re-reads) the manifest and makes it durable. An
// existing manifest must match byte-for-byte: the spool's identity is
// the search, and a mismatch means the caller pointed two different
// searches at one directory.
func (c *coordinator) plan(n *netmodel.Network, copts core.Options) (*Manifest, []byte, error) {
	if err := os.MkdirAll(c.opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	m, err := buildManifest(n, copts, &c.opts)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	data = append(data, '\n')
	path := manifestPath(c.opts.Dir)
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != string(data) {
			return nil, nil, fmt.Errorf("shard: spool %s holds a different search's manifest; use a fresh directory", c.opts.Dir)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	} else if err := durable.WriteFile(path, data); err != nil {
		return nil, nil, err
	}
	c.ev.emit(Event{Type: EventPlan, Slab: -1, Slabs: len(m.Slabs), Axis: m.Axis})
	c.opts.Logf("shard: %d slabs on axis %d over box %v..%v (%s transport, %d hosts)",
		len(m.Slabs), m.Axis, m.Lo, m.Hi, c.opts.Transport.Name(), len(c.hosts))
	return m, data, nil
}

// buildManifest plans the partition for the core options' search box.
func buildManifest(n *netmodel.Network, copts core.Options, opts *Options) (*Manifest, error) {
	spec, err := n.MarshalSpec()
	if err != nil {
		return nil, err
	}
	evName, err := evaluatorName(copts.Evaluator)
	if err != nil {
		return nil, err
	}
	objName, err := objectiveName(copts.Objective)
	if err != nil {
		return nil, err
	}
	dim := len(n.Classes)
	if dim == 0 {
		return nil, fmt.Errorf("shard: network has no classes")
	}
	maxW := copts.MaxWindow
	if maxW <= 0 {
		maxW = 64
	}
	lo, hi := make([]int, dim), make([]int, dim)
	for i := range lo {
		lo[i], hi[i] = 1, maxW
	}
	axis := opts.Axis
	if axis < 0 {
		axis = 0
		for i := 1; i < dim; i++ {
			if hi[i]-lo[i] > hi[axis]-lo[axis] {
				axis = i
			}
		}
	}
	if axis >= dim {
		return nil, fmt.Errorf("shard: axis %d out of range for %d classes", axis, dim)
	}
	width := hi[axis] - lo[axis] + 1
	k := min(opts.Slabs, width)
	slabs := make([]SlabRange, 0, k)
	from := lo[axis]
	for i := 0; i < k; i++ {
		size := width / k
		if i < width%k {
			size++
		}
		slabs = append(slabs, SlabRange{From: from, To: from + size - 1})
		from += size
	}
	return &Manifest{
		Version:     FormatVersion,
		Kind:        manifestKind,
		Network:     json.RawMessage(spec),
		Evaluator:   evName,
		Objective:   objName,
		ExactEngine: copts.ExactEngine,
		NoFallback:  copts.DisableFallback,
		Workers:     copts.Workers,
		Lo:          lo,
		Hi:          hi,
		Axis:        axis,
		Slabs:       slabs,
	}, nil
}

// supervise runs the launch/collect/heartbeat loop to completion.
func (c *coordinator) supervise(n *netmodel.Network, copts core.Options) (*Result, error) {
	c.slabs = make([]slabCtl, len(c.m.Slabs))
	c.res.Slabs, c.res.Axis = len(c.m.Slabs), c.m.Axis
	c.recover()

	// Buffered past the worst case so late exits from superseded
	// attempts can always post without blocking their goroutines.
	exits := make(chan workerExit, len(c.slabs)*(c.opts.MaxRetries+3))
	tick := time.NewTicker(c.opts.PollEvery)
	defer tick.Stop()

	for !c.settled() {
		if err := c.launchEligible(exits); err != nil {
			c.drain(exits)
			return nil, err
		}
		select {
		case we := <-exits:
			if err := c.handleExit(we); err != nil {
				c.drain(exits)
				return nil, err
			}
		case <-tick.C:
			if err := c.checkHeartbeats(); err != nil {
				c.drain(exits)
				return nil, err
			}
			if err := c.checkAdopted(); err != nil {
				c.drain(exits)
				return nil, err
			}
		case <-c.ctx.Done():
			c.drain(exits)
			return nil, fmt.Errorf("shard: drained: %w", context.Cause(c.ctx))
		}
	}
	return c.merge(n, copts)
}

// recover adopts what a previous run left in the spool: durable results
// whose epoch matches the slab lease are taken as done, and slabs whose
// lease is still live are adopted — their owner (launched by a previous
// coordinator incarnation, possibly on another host) is still working,
// and double-launching it would only burn epochs and CPU.
func (c *coordinator) recover() {
	now := time.Now()
	for k := range c.slabs {
		s := &c.slabs[k]
		lease, lerr := readLease(c.opts.Dir, k)
		if lerr == nil {
			s.epoch = lease.Epoch
		}
		if data, err := os.ReadFile(resultPath(c.opts.Dir, k)); err == nil {
			want := 0
			if lerr == nil {
				want = lease.Epoch
			}
			res, verr := c.validateResult(data, k, want)
			if verr == nil {
				s.status = slabDone
				s.result = res
				c.res.Recovered++
				c.ev.emit(Event{Type: EventRecovered, Slab: k, Epoch: res.Epoch,
					Windows: res.Best, Power: float64(res.BestValue)})
				c.opts.Logf("shard: slab %d recovered from spool", k)
				continue
			}
			c.quarantine(k, verr)
		}
		if lerr == nil && lease.LiveAt(now) {
			s.status = slabAdopted
			c.ev.emit(Event{Type: EventAdopted, Slab: k, Epoch: lease.Epoch})
			c.opts.Logf("shard: slab %d adopted (lease epoch %d, owner %s, renewed %s ago)",
				k, lease.Epoch, lease.Owner, now.Sub(lease.Renewed).Round(time.Millisecond))
		}
	}
}

// validateResult parses a slab result and ties it to this search AND to
// the expected fencing epoch. wantEpoch is the attempt's epoch for a
// fresh exit, or the current lease epoch for recovery; a result carrying
// any other epoch was written by a superseded owner — a zombie — and
// must never reach the merge. wantEpoch 0 means no lease exists, in
// which case no result can prove ownership at all.
func (c *coordinator) validateResult(data []byte, slab, wantEpoch int) (*SlabResult, error) {
	res, err := ParseSlabResult(data)
	if err != nil {
		return nil, err
	}
	if err := res.ValidateFor(c.m, c.hash, slab); err != nil {
		return nil, err
	}
	if res.Epoch != wantEpoch {
		return nil, fmt.Errorf("shard: slab result epoch %d, current ownership epoch is %d (stale owner)", res.Epoch, wantEpoch)
	}
	return res, nil
}

// quarantine renames a bad result file aside (never deletes it — the
// bytes are evidence) so the slab can be re-run.
func (c *coordinator) quarantine(k int, cause error) {
	path := resultPath(c.opts.Dir, k)
	q := fmt.Sprintf("%s.quarantine-%d", path, c.res.Quarantined)
	if err := os.Rename(path, q); err != nil {
		// Removal beats re-reading the same bad bytes forever.
		_ = os.Remove(path)
	}
	c.res.Quarantined++
	c.ev.emit(Event{Type: EventQuarantine, Slab: k, Error: cause.Error()})
	c.opts.Logf("shard: slab %d result quarantined: %v", k, cause)
}

func (c *coordinator) settled() bool {
	for k := range c.slabs {
		if s := c.slabs[k].status; s != slabDone && s != slabLost {
			return false
		}
	}
	return true
}

func (c *coordinator) runningCount() int {
	n := 0
	for k := range c.slabs {
		if c.slabs[k].status == slabRunning {
			n++
		}
	}
	return n
}

func (c *coordinator) runningOn(host string) int {
	n := 0
	for k := range c.slabs {
		if s := &c.slabs[k]; s.status == slabRunning && s.att != nil && s.att.host == host {
			n++
		}
	}
	return n
}

// pickHost selects the next launch target round-robin over healthy
// hosts. A host whose blacklist just expired is on probation: it gets a
// single recovery probe (one worker at a time) until a clean exit resets
// its failure count. No healthy host is not an error here — the slab
// stays pending and the tick retries once a blacklist expires.
func (c *coordinator) pickHost() (string, bool) {
	now := time.Now()
	n := len(c.hosts)
	for i := 0; i < n; i++ {
		h := &c.hosts[(c.nextHost+i)%n]
		if h.lost || now.Before(h.until) {
			continue
		}
		if h.fails >= hostDownAfter && c.runningOn(h.name) > 0 {
			continue // probing: one worker at a time until the host proves itself
		}
		c.nextHost = (c.nextHost + i + 1) % n
		return h.name, true
	}
	return "", false
}

func (c *coordinator) host(name string) *hostCtl {
	for i := range c.hosts {
		if c.hosts[i].name == name {
			return &c.hosts[i]
		}
	}
	return nil
}

// hostOK records a clean interaction with a host (an observed worker
// exit proves the control path works), resetting its failure streak.
func (c *coordinator) hostOK(name string) {
	if h := c.host(name); h != nil {
		h.fails = 0
		h.until = time.Time{}
	}
}

// hostFail records an infrastructure failure against a host: a launch
// error, a worker lost to a signal/machine loss, or a kill that never
// produced an exit. Past hostDownAfter consecutive failures the host is
// blacklisted with backoff (a recovery probe runs when it expires); past
// hostLostAfter it is abandoned for good, which fails the run when it
// exceeds the MaxHostsLost quota or leaves no host at all.
func (c *coordinator) hostFail(name string, cause error) error {
	h := c.host(name)
	if h == nil || h.lost {
		return nil
	}
	h.fails++
	if h.fails >= hostLostAfter {
		h.lost = true
		c.res.HostsLost = append(c.res.HostsLost, name)
		c.ev.emit(Event{Type: EventHostLost, Slab: -1, Host: name, Error: cause.Error()})
		c.opts.Logf("shard: host %s lost after %d consecutive failures: %v", name, h.fails, cause)
		alive := 0
		for i := range c.hosts {
			if !c.hosts[i].lost {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("%w: every host lost; last failure on %s: %v", ErrBudget, name, cause)
		}
		if len(c.res.HostsLost) > c.opts.MaxHostsLost {
			return fmt.Errorf("%w: %d hosts lost exceeds the quota %d; host %s: %v",
				ErrBudget, len(c.res.HostsLost), c.opts.MaxHostsLost, name, cause)
		}
		return nil
	}
	if h.fails >= hostDownAfter {
		delay := backoff.Delay(h.fails - hostDownAfter)
		h.until = time.Now().Add(delay)
		c.ev.emit(Event{Type: EventHostDown, Slab: -1, Host: name,
			Error: cause.Error(), BackoffMS: delay.Milliseconds()})
		c.opts.Logf("shard: host %s blacklisted for %v after %d failures: %v", name, delay, h.fails, cause)
	}
	return nil
}

// launchEligible starts pending slabs (whose backoff has elapsed) up to
// the process budget, over the healthy hosts. A launch failure consumes
// a slab retry and counts against the host; the returned error is a
// degradation quota (slabs or hosts) being exceeded.
func (c *coordinator) launchEligible(exits chan workerExit) error {
	now := time.Now()
	for k := range c.slabs {
		if c.runningCount() >= c.opts.Procs {
			return nil
		}
		s := &c.slabs[k]
		if s.status != slabPending || now.Before(s.notBefore) {
			continue
		}
		host, ok := c.pickHost()
		if !ok {
			return nil // every host blacklisted/lost right now; tick retries
		}
		if err := c.launch(k, host, exits); err != nil {
			if herr := c.hostFail(host, err); herr != nil {
				return herr
			}
			if ferr := c.fail(k, fmt.Errorf("launching worker on %s: %w", host, err)); ferr != nil {
				return ferr
			}
		}
	}
	return nil
}

// launch starts slab k on host under the next fencing epoch. The epoch
// is granted before the worker exists: even if the launch dies between
// here and the worker's acquireLease, the epoch number is burned and
// never reused, so ordering stays unambiguous.
func (c *coordinator) launch(k int, host string, exits chan workerExit) error {
	s := &c.slabs[k]
	epoch := s.epoch + 1
	env := []string{}
	if v := os.Getenv(EnvFault); v != "" {
		env = append(env, EnvFault+"="+v)
	}
	env = append(env, c.opts.ExtraEnv...)
	env = append(env,
		EnvDir+"="+c.opts.Dir,
		EnvSlab+"="+fmt.Sprint(k),
		EnvEpoch+"="+fmt.Sprint(epoch),
		EnvLeaseTTL+"="+fmt.Sprint(c.opts.LeaseTTL.Milliseconds()),
	)
	// Stale heartbeat from a previous attempt must not count as progress.
	_ = os.Remove(hbPath(c.opts.Dir, k))
	h, err := c.opts.Transport.Launch(transport.Spec{
		Host:   host,
		Argv:   c.opts.WorkerArgv,
		Env:    env,
		Stderr: os.Stderr,
	})
	if err != nil {
		return err
	}
	s.epoch = epoch
	s.status = slabRunning
	s.attempts++
	s.att = &attempt{handle: h, host: host, epoch: epoch, lastSeen: time.Now()}
	c.ev.emit(Event{Type: EventLaunched, Slab: k, Attempt: s.attempts, Host: host, Epoch: epoch})
	c.opts.Logf("shard: slab %d launched on %s (attempt %d, epoch %d, pid %d)", k, host, s.attempts, epoch, h.Pid())
	att := s.att
	go func() { exits <- workerExit{slab: k, att: att, err: h.Wait()} }()
	return nil
}

// handleExit classifies a worker's death. Exit 0 must be backed by a
// valid result file carrying the attempt's own epoch; everything else
// fails the attempt.
func (c *coordinator) handleExit(we workerExit) error {
	s := &c.slabs[we.slab]
	if s.att != we.att {
		return nil // an exit from a superseded attempt; already accounted
	}
	s.att = nil
	s.status = slabPending
	code := transport.ExitCode(we.err)

	// An observed exit with a real status proves the host's control path
	// works; a -1 (signal, machine loss) that we did not inflict
	// ourselves counts against the host.
	var herr error
	if code >= 0 || we.att.killed {
		c.hostOK(we.att.host)
	} else {
		herr = c.hostFail(we.att.host, fmt.Errorf("worker lost without an exit status: %v", we.err))
	}
	if herr != nil {
		return herr
	}

	if we.att.killed {
		c.res.Reassigned++
		c.ev.emit(Event{Type: EventReassigned, Slab: we.slab, Attempt: s.attempts, Host: we.att.host})
		return c.fail(we.slab, fmt.Errorf("no heartbeat progress within %v; worker killed", c.opts.SlabDeadline))
	}
	if we.err == nil {
		data, err := os.ReadFile(resultPath(c.opts.Dir, we.slab))
		if err == nil {
			res, verr := c.validateResult(data, we.slab, we.att.epoch)
			if verr == nil {
				s.status = slabDone
				s.result = res
				c.ev.emit(Event{Type: EventDone, Slab: we.slab, Attempt: s.attempts,
					Host: we.att.host, Epoch: res.Epoch, Windows: res.Best, Power: float64(res.BestValue)})
				c.opts.Logf("shard: slab %d done (best %v, value %v)", we.slab, res.Best, float64(res.BestValue))
				return nil
			}
			c.quarantine(we.slab, verr)
			return c.fail(we.slab, fmt.Errorf("torn or mismatched result: %w", verr))
		}
		return c.fail(we.slab, fmt.Errorf("worker exited 0 without a result file: %w", err))
	}
	if code == ExitUsage {
		// Contract violation: retrying the same launch cannot succeed.
		return fmt.Errorf("shard: slab %d worker rejected the environment contract (exit %d)", we.slab, code)
	}
	if code == ExitFenced {
		// The worker found itself superseded (or could not prove
		// ownership) and stopped cleanly — the fence doing its job.
		c.res.Fenced++
		c.ev.emit(Event{Type: EventFenced, Slab: we.slab, Attempt: s.attempts,
			Host: we.att.host, Epoch: we.att.epoch})
		return c.fail(we.slab, fmt.Errorf("worker self-fenced (lost lease ownership)"))
	}
	return c.fail(we.slab, fmt.Errorf("worker exited: %v", we.err))
}

// fail accounts one failed attempt: schedule a backoff-paced relaunch
// within the retry budget, or declare the slab lost — tolerated inside
// the AllowLost quota, fatal beyond it.
func (c *coordinator) fail(k int, cause error) error {
	s := &c.slabs[k]
	s.failures++
	if s.failures <= c.opts.MaxRetries {
		c.res.Retries++
		delay := backoff.Delay(s.failures - 1)
		s.status = slabPending
		s.notBefore = time.Now().Add(delay)
		c.ev.emit(Event{Type: EventRetry, Slab: k, Attempt: s.attempts,
			Error: cause.Error(), BackoffMS: delay.Milliseconds()})
		c.opts.Logf("shard: slab %d attempt %d failed (%v); retry in %v", k, s.attempts, cause, delay)
		return nil
	}
	s.status = slabLost
	reason := fmt.Sprintf("%d attempts failed; last: %v", s.failures, cause)
	c.res.Degraded = append(c.res.Degraded, Degraded{Slab: k, Reason: reason})
	c.ev.emit(Event{Type: EventLost, Slab: k, Attempt: s.attempts, Error: reason})
	c.opts.Logf("shard: slab %d lost: %s", k, reason)
	if len(c.res.Degraded) > c.opts.AllowLost {
		return fmt.Errorf("%w: %d slabs lost exceeds the degradation quota %d; slab %d: %v",
			ErrBudget, len(c.res.Degraded), c.opts.AllowLost, k, cause)
	}
	return nil
}

// checkHeartbeats kills workers whose progress file has not advanced
// within the slab deadline, and supersedes killed workers whose exit
// never arrives: a kill that cannot reach its target (partitioned host)
// must not wedge the slab — the attempt is abandoned, the slab
// relaunched under a higher epoch, and the unreachable remnant left for
// the lease fence to terminate.
func (c *coordinator) checkHeartbeats() error {
	now := time.Now()
	for k := range c.slabs {
		s := &c.slabs[k]
		if s.status != slabRunning || s.att == nil {
			continue
		}
		if s.att.killed {
			if now.Sub(s.att.killedAt) > c.opts.KillGrace {
				att := s.att
				s.att = nil // the late exit, if it ever comes, is ignored
				s.status = slabPending
				c.res.Superseded++
				c.ev.emit(Event{Type: EventSuperseded, Slab: k, Attempt: s.attempts,
					Host: att.host, Epoch: att.epoch})
				c.opts.Logf("shard: slab %d worker on %s unreachable %v after kill; superseding", k, att.host, c.opts.KillGrace)
				if err := c.hostFail(att.host, fmt.Errorf("kill produced no exit within %v", c.opts.KillGrace)); err != nil {
					return err
				}
				if err := c.fail(k, fmt.Errorf("worker on %s unreachable after kill; superseded", att.host)); err != nil {
					return err
				}
			}
			continue
		}
		hb := ""
		if b, err := os.ReadFile(hbPath(c.opts.Dir, k)); err == nil {
			hb = string(b)
		}
		if hb != s.att.lastHB {
			s.att.lastHB = hb
			s.att.lastSeen = now
			continue
		}
		if now.Sub(s.att.lastSeen) > c.opts.SlabDeadline {
			s.att.killed = true
			s.att.killedAt = now
			c.ev.emit(Event{Type: EventDeadline, Slab: k, Attempt: s.attempts, Host: s.att.host})
			c.opts.Logf("shard: slab %d heartbeat stalled; killing worker on %s", k, s.att.host)
			_ = s.att.handle.Kill()
		}
	}
	return nil
}

// checkAdopted watches slabs owned by workers this coordinator did not
// launch (live leases found at recovery): a valid result completes the
// slab; an expired lease reclaims it for relaunch under a higher epoch.
func (c *coordinator) checkAdopted() error {
	now := time.Now()
	for k := range c.slabs {
		s := &c.slabs[k]
		if s.status != slabAdopted {
			continue
		}
		lease, lerr := readLease(c.opts.Dir, k)
		if lerr == nil && lease.Epoch > s.epoch {
			s.epoch = lease.Epoch
		}
		if data, err := os.ReadFile(resultPath(c.opts.Dir, k)); err == nil {
			want := 0
			if lerr == nil {
				want = lease.Epoch
			}
			res, verr := c.validateResult(data, k, want)
			if verr == nil {
				s.status = slabDone
				s.result = res
				c.res.Adopted++
				c.ev.emit(Event{Type: EventDone, Slab: k, Epoch: res.Epoch,
					Windows: res.Best, Power: float64(res.BestValue)})
				c.opts.Logf("shard: slab %d completed by adopted worker (epoch %d)", k, res.Epoch)
				continue
			}
			c.quarantine(k, verr)
			s.status = slabPending
			if err := c.fail(k, fmt.Errorf("adopted owner wrote a bad result: %w", verr)); err != nil {
				return err
			}
			continue
		}
		if lerr == nil && lease.LiveAt(now) {
			continue // still owned; keep watching
		}
		// The owner went silent past its TTL (or its lease is unreadable):
		// reclaim the slab. The relaunch bumps the epoch, so even a
		// still-breathing owner is fenced out.
		cause := fmt.Errorf("adopted lease expired without a result")
		if lerr != nil && !errors.Is(lerr, os.ErrNotExist) {
			cause = fmt.Errorf("adopted lease unreadable: %w", lerr)
		}
		s.status = slabPending
		c.res.Reassigned++
		c.ev.emit(Event{Type: EventReassigned, Slab: k, Epoch: s.epoch, Error: cause.Error()})
		c.opts.Logf("shard: slab %d reclaimed from adopted owner: %v", k, cause)
		if err := c.fail(k, cause); err != nil {
			return err
		}
	}
	return nil
}

// drain asks every live worker to stop so each checkpoints its slab,
// escalating to a kill after one grace period and abandoning whatever
// is still unreachable after a second — a partitioned worker's exit may
// simply never arrive, and a drain must not hang on it (the lease fence
// terminates the remnant).
func (c *coordinator) drain(exits chan workerExit) {
	c.ev.emit(Event{Type: EventDrain, Slab: -1})
	live := 0
	for k := range c.slabs {
		if s := &c.slabs[k]; s.status == slabRunning && s.att != nil {
			live++
			_ = s.att.handle.Terminate()
		}
	}
	killed := false
	grace := time.After(c.opts.KillGrace)
	for live > 0 {
		select {
		case we := <-exits:
			if s := &c.slabs[we.slab]; s.att == we.att {
				s.att = nil
				s.status = slabPending
				live--
			}
		case <-grace:
			if killed {
				// Second grace expired: whoever has not exited is beyond
				// reach. Abandon the attempts rather than wait forever.
				for k := range c.slabs {
					if s := &c.slabs[k]; s.status == slabRunning && s.att != nil {
						c.opts.Logf("shard: abandoning unreachable worker on %s (slab %d)", s.att.host, k)
						s.att = nil
						s.status = slabPending
						live--
					}
				}
				continue
			}
			killed = true
			for k := range c.slabs {
				if s := &c.slabs[k]; s.status == slabRunning && s.att != nil {
					_ = s.att.handle.Kill()
				}
			}
			grace = time.After(c.opts.KillGrace)
		}
	}
	c.opts.Logf("shard: drained; every reachable slab checkpointed")
}

// merge folds the surviving slab optima with the deterministic
// (value, then lexicographically earliest point) rule and evaluates the
// winner's metrics through the same engine path Dimension reports with.
// Only results validated at completion time are folded — a zombie's
// stale file landing in the spool after its slab completed cannot
// resurface here.
func (c *coordinator) merge(n *netmodel.Network, copts core.Options) (*Result, error) {
	var best numeric.IntVector
	bestV := 0.0
	for k := range c.slabs {
		s := &c.slabs[k]
		if s.status != slabDone {
			continue
		}
		c.res.Evaluations += s.result.Evaluations
		c.res.NonConverged += s.result.NonConverged
		if s.result.Best == nil {
			continue
		}
		p := numeric.IntVector(s.result.Best)
		v := float64(s.result.BestValue)
		if improves(v, p, bestV, best) {
			best, bestV = p, v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("shard: no feasible window setting in any surviving slab")
	}
	c.res.Windows = best
	c.res.BestValue = bestV

	scanner, err := core.NewBoxScanner(n, copts)
	if err != nil {
		return nil, err
	}
	m, err := scanner.Metrics(best)
	if err != nil {
		return nil, err
	}
	c.res.Metrics = m
	c.ev.emit(Event{Type: EventMerged, Slab: -1, Windows: best, Power: bestV})
	c.opts.Logf("shard: merged optimum %v (value %v)", best, bestV)
	return &c.res, nil
}
