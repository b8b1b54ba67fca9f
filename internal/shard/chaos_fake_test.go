package shard

// Multi-host chaos: the fake transport runs workers as in-process
// goroutines over simulated hosts, so machine loss and network
// partitions — failure modes a process transport cannot fake — become
// deterministic test fixtures. Every scenario still ends in the same
// acceptance check: the merged result bit-identical to the
// single-process exhaustive run.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/shard/transport"
)

// fakeShardOptions builds coordinator options over an in-process fake
// fleet. Faults ride ExtraEnv exactly as they would over a real
// transport; chaos is the fake's own host-level injection.
func fakeShardOptions(t *testing.T, fleet []string, chaos, faults string) (Options, *transport.Fake) {
	t.Helper()
	fk, err := transport.NewFake(fleet, WorkerEnvMain, chaos)
	if err != nil {
		t.Fatalf("NewFake: %v", err)
	}
	opts := Options{
		Dir:          filepath.Join(t.TempDir(), "spool"),
		WorkerArgv:   []string{"in-process"},
		Transport:    fk,
		Procs:        2,
		Slabs:        3,
		Axis:         -1,
		MaxRetries:   5,
		LeaseTTL:     2 * time.Second,
		SlabDeadline: 400 * time.Millisecond,
		KillGrace:    150 * time.Millisecond,
		PollEvery:    10 * time.Millisecond,
		Logf:         t.Logf,
	}
	if faults != "" {
		opts.ExtraEnv = []string{EnvFault + "=" + faults}
	}
	return opts, fk
}

// TestFakeTransportMultiHostChaos loses one host for good mid-slab and
// partitions another behind a live worker, on a three-host fleet. The
// hang faults park each victim worker mid-slab so the injected failure
// deterministically lands while the slab is incomplete. The run must
// degrade across the surviving host and still merge bit-identically.
func TestFakeTransportMultiHostChaos(t *testing.T) {
	base := baseline(t)
	opts, _ := fakeShardOptions(t, []string{"sim0", "sim1", "sim2"},
		"hostdown:slab0,partition:slab1", "hang:slab0,hang:slab1")
	opts.MaxHostsLost = 2
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	// Both victim slabs needed a relaunch: the downed host's worker died
	// without an exit status, the partitioned one was superseded after
	// the kill could not reach it.
	if res.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (hostdown + partition)", res.Retries)
	}
	if res.Superseded < 1 {
		t.Errorf("superseded = %d, want >= 1 (unreachable worker behind the partition)", res.Superseded)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("slabs lost despite healthy capacity: %+v", res.Degraded)
	}
}

// TestZombieSurvivesCoordinatorRestart is the PR's acceptance scenario:
// a zombie worker (ignores all fencing) behind a partition, PLUS a
// coordinator crash at the exact moment the zombie's slab is abandoned.
// The restarted coordinator adopts the spool, relaunches the slab under
// a higher epoch — which wakes the zombie into writing its stale-epoch
// result — and the merge must fence that write out: windows, power bits
// and the total evaluation count all match the uninterrupted run.
func TestZombieSurvivesCoordinatorRestart(t *testing.T) {
	base := baseline(t)
	opts, _ := fakeShardOptions(t, []string{"sim0", "sim1"},
		"partition:slab1", "zombie:slab1")
	opts.LeaseTTL = time.Second

	// Run 1: cancel the coordinator the moment it gives up on the
	// zombie's attempt — a crash mid-recovery, the worst instant.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Context = ctx
	opts.OnEvent = func(ev Event) {
		if ev.Type == EventSuperseded && ev.Slab == 1 {
			cancel()
		}
	}
	if _, err := Run(testNetwork(), testCoreOptions(), opts); err == nil {
		t.Fatal("run 1 finished despite being cancelled at supersession")
	}

	// Run 2: a fresh coordinator and a fresh transport over the same
	// spool (chaos and fault markers are one-shot and survive there).
	// The zombie goroutine from run 1 is still alive, polling the lease
	// for the supersession that triggers its stale write.
	opts2, _ := fakeShardOptions(t, []string{"sim0", "sim1"},
		"partition:slab1", "zombie:slab1")
	opts2.Dir = opts.Dir
	opts2.LeaseTTL = time.Second
	res, err := Run(testNetwork(), testCoreOptions(), opts2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Recovered < 1 {
		t.Errorf("recovered = %d, want >= 1 (run 1's finished slabs)", res.Recovered)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("slabs lost: %+v", res.Degraded)
	}
}

// TestPartitionedWorkerSelfFences drives the worker side of the fence
// over the real process transport: a worker whose lease file becomes
// unreachable (partition fault) must self-terminate with ExitFenced once
// it cannot re-prove ownership within the TTL — never write a result —
// and the relaunch must still merge bit-identically.
func TestPartitionedWorkerSelfFences(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	opts := testShardOptions(t, EnvFault+"=partition:slab0")
	opts.LeaseTTL = 300 * time.Millisecond
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Fenced < 1 {
		t.Errorf("fenced = %d, want >= 1 (partitioned worker must self-fence)", res.Fenced)
	}
	if res.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (fenced slab relaunched)", res.Retries)
	}
}

// TestCoordinatorAdoptsLiveLease restarts the partition-tolerance story
// from the coordinator side: a spool holding a LIVE lease for slab 0
// (its owner launched by a previous coordinator incarnation) must be
// adopted — watched for its result — never double-launched.
func TestCoordinatorAdoptsLiveLease(t *testing.T) {
	base := baseline(t)
	opts, fk := fakeShardOptions(t, []string{"sim0", "sim1"}, "", "")
	n, copts := testNetwork(), testCoreOptions()

	// Stage the spool a dead coordinator left behind: the manifest
	// (byte-identical to what plan() writes) and a live lease for slab 0
	// held by a worker this coordinator did not launch.
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	planOpts := opts
	m, err := buildManifest(n, copts, &planOpts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := durable.WriteFile(manifestPath(opts.Dir), data); err != nil {
		t.Fatal(err)
	}
	hash := Hash(data)
	lease, err := acquireLease(opts.Dir, 0, hash, 1, "previous-incarnation", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stopRenew := make(chan struct{})
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		for {
			select {
			case <-stopRenew:
				return
			case <-time.After(100 * time.Millisecond):
				_ = renewLease(opts.Dir, lease)
			}
		}
	}()

	out := make(chan struct {
		res *Result
		err error
	}, 1)
	go func() {
		res, err := Run(n, copts, opts)
		out <- struct {
			res *Result
			err error
		}{res, err}
	}()

	// The coordinator must finish slabs 1 and 2 while slab 0 stays
	// adopted behind its live lease.
	waitForFiles(t, resultPath(opts.Dir, 1), resultPath(opts.Dir, 2))

	// Now the adopted owner completes its slab under a higher epoch (the
	// epoch its own relaunch would have been granted).
	close(stopRenew)
	<-renewDone
	code := WorkerEnvMain(context.Background(), []string{
		EnvDir + "=" + opts.Dir,
		EnvSlab + "=0",
		EnvEpoch + "=2",
		EnvLeaseTTL + "=5000",
	})
	if code != ExitOK {
		t.Fatalf("adopted worker exited %d", code)
	}

	r := <-out
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	assertMatchesBaseline(t, r.res, base)
	if r.res.Adopted != 1 {
		t.Errorf("adopted = %d, want 1", r.res.Adopted)
	}
	if got := fk.Launches("sim0") + fk.Launches("sim1"); got != 2 {
		t.Errorf("launched %d workers, want 2 (slab 0 must not be double-launched)", got)
	}
}

func waitForFiles(t *testing.T, paths ...string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for _, p := range paths {
		for {
			if _, err := os.Stat(p); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
