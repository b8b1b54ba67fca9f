package shard

// Chaos-path tests: each injects a fault through the SHARD_FAULT worker
// contract (or kills processes outright) and requires the run to end in
// a merged optimum bit-identical (Float64bits-equal power) to the
// unsharded core.Dimension run — crash recovery must never cost
// determinism.

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
)

func TestChaosCrashMidSlab(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	// Slab 1's worker dies abruptly (exit without result) after its first
	// completed, fsynced stride; the relaunch must resume from the slab
	// checkpoint and finish.
	opts := testShardOptions(t, EnvFault+"=crash:slab1")
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Retries < 1 {
		t.Fatalf("crash was not retried: %+v", res)
	}
	// The resumed attempt must not have re-scanned the checkpointed
	// stride — evaluation totals already match the baseline exactly via
	// assertMatchesBaseline, which is only possible without rescans.
	data, err := os.ReadFile(ckptPath(opts.Dir, 1))
	if err != nil {
		t.Fatalf("slab 1 checkpoint: %v", err)
	}
	cp, err := ParseSlabCheckpoint(data)
	if err != nil {
		t.Fatalf("slab 1 checkpoint: %v", err)
	}
	if cp.Last == nil {
		t.Fatal("slab 1 checkpoint has no records")
	}
}

func TestChaosHungWorkerSIGKILLed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	// Slab 2's worker stalls silently past the deadline mid-slab; the
	// coordinator must SIGKILL it, reassign the slab, and still merge a
	// bit-identical optimum. The deadline also bounds worker startup
	// (parse manifest, build the network, first stride), which the race
	// detector slows ~10×, so keep it generous enough that only the
	// injected hang — a 10-minute stall — trips it.
	opts := testShardOptions(t, EnvFault+"=hang:slab2")
	opts.SlabDeadline = 3 * time.Second
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Reassigned < 1 {
		t.Fatalf("hung worker was not reassigned: %+v", res)
	}
}

func TestChaosTornSlabResult(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	// Slab 0's worker exits 0 leaving a truncated result file: the
	// coordinator must quarantine it (rename aside, never trust it) and
	// re-run the slab, which resumes from the checkpoint.
	opts := testShardOptions(t, EnvFault+"=torn:slab0")
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Quarantined < 1 || res.Retries < 1 {
		t.Fatalf("torn result not quarantined and retried: %+v", res)
	}
	matches, err := filepath.Glob(resultPath(opts.Dir, 0) + ".quarantine-*")
	if err != nil || len(matches) == 0 {
		t.Fatalf("quarantined file not kept as evidence: %v %v", matches, err)
	}
}

func TestChaosSlabLostDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// Slab 1 crashes on every attempt. Within the AllowLost quota the run
	// must degrade gracefully: record the slab and reason, and merge the
	// optimum of the SURVIVING slabs only.
	opts := testShardOptions(t, EnvFault+"=crash-always:slab1")
	opts.MaxRetries = 1
	opts.AllowLost = 1
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Slab != 1 {
		t.Fatalf("degradation not recorded: %+v", res.Degraded)
	}
	if !strings.Contains(res.Degraded[0].Reason, "attempts failed") {
		t.Fatalf("degradation reason empty: %q", res.Degraded[0].Reason)
	}

	// The merged optimum must equal the best over slabs 0 and 2 computed
	// in-process — graceful degradation is still deterministic.
	m, err := ParseManifest(mustRead(t, manifestPath(opts.Dir)))
	if err != nil {
		t.Fatal(err)
	}
	scanner, err := core.NewBoxScanner(testNetwork(), testCoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	var best numeric.IntVector
	bestV := 0.0
	for _, k := range []int{0, 2} {
		lo, hi := m.slabBox(k)
		sres, err := scanner.Scan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Best != nil && improves(sres.BestValue, sres.Best, bestV, best) {
			best, bestV = sres.Best, sres.BestValue
		}
	}
	if res.Windows.Key() != best.Key() {
		t.Fatalf("degraded merge %s, surviving-slab optimum %s", res.Windows.Key(), best.Key())
	}
	if math.Float64bits(res.BestValue) != math.Float64bits(bestV) {
		t.Fatalf("degraded merge value %v, surviving-slab optimum %v", res.BestValue, bestV)
	}
}

func TestChaosSlabLostBeyondQuotaFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	opts := testShardOptions(t, EnvFault+"=crash-always:slab1")
	opts.MaxRetries = 1
	opts.AllowLost = 0
	_, err := Run(testNetwork(), testCoreOptions(), opts)
	if err == nil || !strings.Contains(err.Error(), "degradation quota") {
		t.Fatalf("lost slab beyond quota: err = %v", err)
	}
}

func TestChaosLaunchFailureExhaustsRetries(t *testing.T) {
	opts := testShardOptions(t)
	opts.WorkerArgv = []string{"/nonexistent/worker/binary"}
	opts.MaxRetries = 1
	_, err := Run(testNetwork(), testCoreOptions(), opts)
	if err == nil || !strings.Contains(err.Error(), "degradation quota") {
		t.Fatalf("unlaunchable worker: err = %v", err)
	}
}

func TestChaosDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	// First run is cancelled mid-search while slab 2's worker is wedged
	// in a hang: the drain must SIGTERM every live worker (the hung one
	// included — its signal context fires) and fail with the cause.
	opts := testShardOptions(t, EnvFault+"=hang:slab2")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	opts.Context = ctx
	_, err := Run(testNetwork(), testCoreOptions(), opts)
	if err == nil || !strings.Contains(err.Error(), "drained") {
		t.Fatalf("cancelled run: err = %v", err)
	}

	// Re-running over the same spool resumes: completed slabs recover
	// from their results, the drained slab from its checkpoint (the hang
	// marker has fired, so it runs clean) — and the merge is still
	// bit-identical.
	opts.Context = nil
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
}

// TestChaosProgressStream checks the NDJSON event stream stays parseable
// and consistent with the service event spine across a faulty run.
func TestChaosProgressStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	var buf strings.Builder
	opts := testShardOptions(t, EnvFault+"=crash:slab1")
	opts.Progress = &buf
	if _, err := Run(testNetwork(), testCoreOptions(), opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	seen := map[string]int{}
	seq := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e Event
		if err := jsonUnmarshalStrict(line, &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Seq != seq+1 {
			t.Fatalf("event seq %d after %d", e.Seq, seq)
		}
		seq = e.Seq
		if e.At.IsZero() {
			t.Fatalf("event without timestamp: %q", line)
		}
		seen[e.Type]++
	}
	for _, want := range []string{EventPlan, EventLaunched, EventRetry, EventDone, EventMerged} {
		if seen[want] == 0 {
			t.Fatalf("event stream missing %q: %v", want, seen)
		}
	}
}

func jsonUnmarshalStrict(line string, e *Event) error {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	return dec.Decode(e)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
