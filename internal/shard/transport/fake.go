package transport

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WorkerFunc runs one slab worker in-process: it receives the contract
// environment (KEY=VALUE, the same entries a real worker would read from
// its process environment) and returns the worker exit code. The shard
// package injects its worker entry point here, keeping this package free
// of a dependency cycle.
type WorkerFunc func(ctx context.Context, env []string) int

// ChaosEnv is the fake transport's chaos hook: a comma-separated list of
// kind:slabN rules, each firing once (a marker file in the spool makes
// one-shot semantics survive coordinator restarts):
//
//   - "hostdown:slabN" — once slab N's worker has made its first
//     checkpoint record durable, the machine "loses power": the worker
//     is stopped abruptly and its host goes down for good (subsequent
//     launches on it fail), exercising host blacklisting and the
//     -max-hosts-lost degradation.
//   - "partition:slabN" — once slab N's worker has made its first
//     checkpoint record durable, its host is partitioned from the
//     coordinator: the handle's Terminate/Kill no longer reach the
//     worker and Wait never returns, but the worker itself keeps
//     running — the zombie regime that lease fencing must contain.
const ChaosEnv = "SHARD_FAKE_CHAOS"

// Fake is the in-process transport for chaos tests and CI smokes:
// "hosts" are labels, workers are goroutines running the injected
// WorkerFunc, and partitions/host losses are simulated deterministically
// off durable spool state rather than timers.
type Fake struct {
	run   WorkerFunc
	fleet []string

	mu      sync.Mutex
	down    map[string]bool
	cut     map[string]bool // partitioned hosts
	started map[string]int  // launches per host
	handles map[string][]*fakeHandle
	chaos   []*chaosRule
}

type chaosRule struct {
	kind string // hostdown | partition
	slab int
}

// NewFake builds a fake transport over the named hosts. chaosSpec
// follows the ChaosEnv contract; malformed entries are ignored (a typo
// in a chaos hook must never change production behaviour).
func NewFake(hosts []string, run WorkerFunc, chaosSpec string) (*Fake, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("transport: fake transport needs at least one host")
	}
	if run == nil {
		return nil, fmt.Errorf("transport: fake transport needs a worker function")
	}
	f := &Fake{
		run:     run,
		fleet:   hosts,
		down:    make(map[string]bool),
		cut:     make(map[string]bool),
		started: make(map[string]int),
		handles: make(map[string][]*fakeHandle),
	}
	for _, part := range strings.Split(chaosSpec, ",") {
		kind, target, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || !strings.HasPrefix(target, "slab") {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(target, "slab"))
		if err != nil || k < 0 {
			continue
		}
		switch kind {
		case "hostdown", "partition":
			f.chaos = append(f.chaos, &chaosRule{kind: kind, slab: k})
		}
	}
	return f, nil
}

func (f *Fake) Name() string    { return "fake" }
func (f *Fake) Hosts() []string { return f.fleet }

// Launches reports how many workers were started on host (tests assert
// adoption never double-launches).
func (f *Fake) Launches(host string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.started[host]
}

// HostDown marks a host dead: running workers stop abruptly and future
// launches fail.
func (f *Fake) HostDown(host string) {
	f.mu.Lock()
	f.down[host] = true
	hs := append([]*fakeHandle(nil), f.handles[host]...)
	f.mu.Unlock()
	for _, h := range hs {
		h.powerLoss()
	}
}

// Partition cuts a host off from the coordinator: its workers keep
// running (and keep reaching the shared spool in this in-process
// simulation), but the transport can no longer signal them or observe
// their exits, and new launches on the host fail.
func (f *Fake) Partition(host string) {
	f.mu.Lock()
	f.cut[host] = true
	hs := append([]*fakeHandle(nil), f.handles[host]...)
	f.mu.Unlock()
	for _, h := range hs {
		h.partition()
	}
}

func (f *Fake) Launch(spec Spec) (Handle, error) {
	found := false
	for _, h := range f.fleet {
		if h == spec.Host {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("transport: fake transport has no host %q", spec.Host)
	}
	f.mu.Lock()
	if f.down[spec.Host] {
		f.mu.Unlock()
		return nil, fmt.Errorf("transport: host %s is down", spec.Host)
	}
	if f.cut[spec.Host] {
		f.mu.Unlock()
		return nil, fmt.Errorf("transport: host %s is unreachable", spec.Host)
	}
	f.started[spec.Host]++
	f.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	h := &fakeHandle{
		host:   spec.Host,
		cancel: cancel,
		done:   make(chan struct{}),
		lost:   make(chan struct{}),
	}
	f.mu.Lock()
	f.handles[spec.Host] = append(f.handles[spec.Host], h)
	f.mu.Unlock()

	env := append([]string(nil), spec.Env...)
	go func() {
		code := f.run(ctx, env)
		h.mu.Lock()
		h.code = code
		h.mu.Unlock()
		close(h.done)
	}()
	go f.watchChaos(spec, h)
	return h, nil
}

// watchChaos waits for the launched slab's first checkpoint record to
// become durable, then fires any chaos rule armed for the slab. Keying
// the trigger on durable spool state (not wall-clock) makes the injected
// failure land "mid-slab" deterministically.
func (f *Fake) watchChaos(spec Spec, h *fakeHandle) {
	dir := envValue(spec.Env, "SHARD_DIR")
	slabStr := envValue(spec.Env, "SHARD_SLAB")
	slab, err := strconv.Atoi(slabStr)
	if dir == "" || err != nil {
		return
	}
	var rule *chaosRule
	f.mu.Lock()
	for _, r := range f.chaos {
		if r.slab == slab {
			rule = r
			break
		}
	}
	f.mu.Unlock()
	if rule == nil {
		return
	}
	ckpt := filepath.Join(dir, fmt.Sprintf("slab%d.ckpt", slab))
	for {
		select {
		case <-h.done:
			return // worker finished before the trigger condition
		case <-time.After(5 * time.Millisecond):
		}
		data, err := os.ReadFile(ckpt)
		if err == nil && strings.Count(string(data), "\n") >= 2 {
			break // header + at least one record are durable
		}
	}
	// One-shot across coordinator restarts: the first transport to create
	// the marker fires; later runs see it and leave the slab alone.
	marker := filepath.Join(dir, fmt.Sprintf("slab%d.chaos-%s.fired", slab, rule.kind))
	mf, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	mf.Close()
	switch rule.kind {
	case "hostdown":
		f.HostDown(h.host)
	case "partition":
		f.Partition(h.host)
	}
}

// fakeHandle controls one in-process worker.
type fakeHandle struct {
	host   string
	cancel context.CancelFunc
	done   chan struct{} // closed when the worker goroutine returns
	lost   chan struct{} // closed when the host partitions away

	mu       sync.Mutex
	code     int
	lostFlag bool
	downed   bool
}

func (h *fakeHandle) powerLoss() {
	h.mu.Lock()
	h.downed = true
	h.mu.Unlock()
	h.cancel()
}

func (h *fakeHandle) partition() {
	h.mu.Lock()
	if !h.lostFlag {
		h.lostFlag = true
		close(h.lost)
	}
	h.mu.Unlock()
}

func (h *fakeHandle) reachable() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.lostFlag
}

func (h *fakeHandle) Terminate() error {
	if h.reachable() {
		h.cancel()
	}
	return nil
}

func (h *fakeHandle) Kill() error {
	if h.reachable() {
		h.cancel()
	}
	return nil
}

// Wait returns the worker's outcome — unless the host partitioned away,
// in which case it blocks for as long as the partition holds, exactly
// like an ssh session that will never report the remote exit.
func (h *fakeHandle) Wait() error {
	select {
	case <-h.done:
	case <-h.lost:
	}
	// Checked after the select too: when the worker has exited AND the
	// host is cut, select picks either case at random.
	if !h.reachable() {
		select {} // the exit is unobservable behind the partition
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.downed {
		return &ExitError{Code: -1} // abrupt machine loss, no exit status
	}
	if h.code == 0 {
		return nil
	}
	return &ExitError{Code: h.code}
}

func (h *fakeHandle) Pid() int     { return 0 }
func (h *fakeHandle) Host() string { return h.host }

// envValue finds key in a KEY=VALUE list (last entry wins, matching
// process-environment semantics).
func envValue(env []string, key string) string {
	val := ""
	for _, kv := range env {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			val = v
		}
	}
	return val
}
