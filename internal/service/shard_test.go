package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/shard"
	"repro/internal/shard/transport"
)

// shardConfig wires the daemon to an in-process fake fleet: kind:"shard"
// jobs launch their slab workers as goroutines, no re-exec needed.
func shardConfig(t *testing.T, spool string, hosts ...string) Config {
	t.Helper()
	if len(hosts) == 0 {
		hosts = []string{"sim0", "sim1"}
	}
	fk, err := transport.NewFake(hosts, shard.WorkerEnvMain, os.Getenv(transport.ChaosEnv))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig(spool)
	cfg.ShardTransport = fk
	cfg.ShardWorkerArgv = []string{"in-process"}
	return cfg
}

// shardBaseline runs the single-process exhaustive search a shard job
// must reproduce bit-for-bit.
func shardBaseline(t *testing.T, spec string) *core.Result {
	t.Helper()
	parsed, err := ParseJob([]byte(spec))
	if err != nil {
		t.Fatalf("ParseJob: %v", err)
	}
	res, err := core.Dimension(parsed.Net, core.Options{
		Evaluator: parsed.Evaluator,
		Objective: parsed.Objective,
		Search:    core.ExhaustiveSearch,
		MaxWindow: parsed.Spec.MaxWindow,
		Workers:   parsed.Spec.Workers,
	})
	if err != nil {
		t.Fatalf("baseline Dimension: %v", err)
	}
	return res
}

// The short lease TTL keeps the restart test fast: the dead run's
// parked worker is reclaimed after 1s instead of the 10s default.
const shardJobSpec = `{"id": "sj", "example": "canada2", "kind": "shard",
	"max_window": 6, "workers": 2,
	"shard": {"procs": 2, "slabs": 3, "lease_ttl_ms": 1000}}`

func TestShardJobMatchesExhaustive(t *testing.T) {
	base := shardBaseline(t, shardJobSpec)
	s := newTestServer(t, shardConfig(t, t.TempDir()))
	id, code, out := submitJob(t, s, shardJobSpec)
	if code != 202 {
		t.Fatalf("submit: %d %v", code, out)
	}
	rec := waitTerminal(t, s, id)
	if rec.State != StateDone {
		t.Fatalf("job ended %s (%s)", rec.State, rec.Error)
	}
	res := rec.Result
	if res == nil {
		t.Fatal("no result")
	}
	if got, want := res.Windows, []int(base.Windows); len(got) != len(want) {
		t.Fatalf("windows %v, baseline %v", got, want)
	}
	for i := range res.Windows {
		if res.Windows[i] != base.Windows[i] {
			t.Fatalf("windows %v, baseline %v", res.Windows, base.Windows)
		}
	}
	if got, want := math.Float64bits(res.Power), math.Float64bits(base.Metrics.Power); got != want {
		t.Fatalf("power %x not bit-identical to baseline %x", got, want)
	}
	if got, want := res.Evaluations, base.Search.Evaluations; got != want {
		t.Fatalf("evaluations %d, baseline %d", got, want)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("clean run degraded: %v", res.Degraded)
	}

	// The coordinator's spool is retired with the checkpoint; the journal
	// record remains the durable result.
	if _, err := os.Stat(s.journal.ShardDir(id)); !os.IsNotExist(err) {
		t.Fatal("shard spool not retired after completion")
	}
	// The coordinator's stream surfaced in the job's event feed under the
	// shard- prefix.
	j := s.lookup(id)
	evs, _, _ := j.feed.Since(0)
	sawShard := false
	for _, ev := range evs {
		if strings.HasPrefix(ev.Type, "shard-") {
			sawShard = true
			break
		}
	}
	if !sawShard {
		t.Fatalf("no shard- events in the feed: %+v", evs)
	}
}

// TestShardJobEventFeed pins the one event vocabulary on the windimd
// feed of a shard job: the coordinator's events arrive with their fields
// intact (the slab on every launch and slab result, the host on every
// launch, the partition on the plan), the merged power is a power equal
// to the job's, and the daemon log holds one rendered line per event.
func TestShardJobEventFeed(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	cfg := shardConfig(t, t.TempDir())
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	s := newTestServer(t, cfg)
	id, code, out := submitJob(t, s, shardJobSpec)
	if code != 202 {
		t.Fatalf("submit: %d %v", code, out)
	}
	if rec := waitTerminal(t, s, id); rec.State != StateDone {
		t.Fatalf("job ended %s (%s)", rec.State, rec.Error)
	}

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+id+"/events", nil))
	var shardEvs []Event
	var merged, done *Event
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var ev Event
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		json.Unmarshal([]byte(line), &raw)
		switch ev.Type {
		case event.ShardPlan:
			if raw["slabs"] != 3.0 || raw["axis"] != 0.0 {
				t.Errorf("plan event without its partition: %s", line)
			}
		case event.ShardLaunched, event.ShardDone:
			if ev.Slab == nil || (ev.Type == event.ShardLaunched && ev.Host == "") {
				t.Errorf("%s event without slab or host: %s", ev.Type, line)
			}
		case event.ShardMerged:
			merged = &ev
		case event.Done:
			done = &ev
		}
		if strings.HasPrefix(ev.Type, "shard-") {
			shardEvs = append(shardEvs, ev)
		}
	}
	if merged == nil || done == nil {
		t.Fatalf("feed lacks shard-merged or done: %s", w.Body.String())
	}
	if math.Abs(merged.Power-done.Power) > 1e-12*done.Power {
		t.Errorf("shard-merged power %v, job done power %v", merged.Power, done.Power)
	}

	mu.Lock()
	defer mu.Unlock()
	var lines []string
	for _, l := range logged {
		if strings.HasPrefix(l, "job "+id+": shard-") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(shardEvs) {
		t.Fatalf("%d shard log lines for %d shard events:\n%s", len(lines), len(shardEvs), strings.Join(lines, "\n"))
	}
	for i, ev := range shardEvs {
		if want := "job " + id + ": " + ev.String(); lines[i] != want {
			t.Errorf("log line %d = %q, want %q", i, lines[i], want)
		}
	}
}

// TestShardJobKillRestartResume: a daemon killed while a shard job has a
// worker parked mid-slab must, on restart over the same spool, resume
// the coordinator — recovering finished slabs, re-running the rest — and
// converge to the bit-identical exhaustive optimum.
func TestShardJobKillRestartResume(t *testing.T) {
	base := shardBaseline(t, shardJobSpec)
	spool := t.TempDir()
	// The hang fault (one-shot, marker in the shard spool) parks slab
	// 1's worker, guaranteeing the kill lands mid-run.
	t.Setenv(shard.EnvFault, "hang:slab1")
	s1 := newTestServer(t, shardConfig(t, spool))
	id, code, out := submitJob(t, s1, shardJobSpec)
	if code != 202 {
		t.Fatalf("submit: %d %v", code, out)
	}
	dir := s1.journal.ShardDir(id)
	waitFor(t, "slabs 0 and 2 done, slab 1 parked", func() bool {
		for _, f := range []string{"slab0.res", "slab2.res", "slab1.fault-hang.fired"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				return false
			}
		}
		return true
	})
	s1.Kill()

	t.Setenv(shard.EnvFault, "") // the fault marker alone gates the re-run
	s2 := newTestServer(t, shardConfig(t, spool))
	rec := waitTerminal(t, s2, id)
	if rec.State != StateDone {
		t.Fatalf("restarted job ended %s (%s)", rec.State, rec.Error)
	}
	res := rec.Result
	if !res.Resumed {
		t.Fatal("restarted run not marked resumed")
	}
	for i := range res.Windows {
		if res.Windows[i] != base.Windows[i] {
			t.Fatalf("windows %v, baseline %v", res.Windows, base.Windows)
		}
	}
	if got, want := math.Float64bits(res.Power), math.Float64bits(base.Metrics.Power); got != want {
		t.Fatalf("resumed power %x not bit-identical to baseline %x", got, want)
	}
	if got, want := res.Evaluations, base.Search.Evaluations; got != want {
		t.Fatalf("resumed evaluations %d, baseline %d (candidate scanned twice or skipped)", got, want)
	}
}

func TestParseJobShardValidation(t *testing.T) {
	good := `{"example": "canada2", "kind": "shard", "max_window": 6,
		"shard": {"procs": 2, "slabs": 3, "axis": -1, "slab_retries": 1,
		"allow_lost": 1, "max_hosts_lost": 1, "lease_ttl_ms": 500, "slab_deadline_ms": 1000}}`
	j, err := ParseJob([]byte(good))
	if err != nil {
		t.Fatalf("good shard spec rejected: %v", err)
	}
	if !j.Sharded() || j.Spec.Shard == nil || *j.Spec.Shard.Axis != -1 {
		t.Fatalf("shard spec mangled: %+v", j.Spec)
	}
	for name, spec := range map[string]string{
		"shard settings without kind": `{"example": "canada2", "shard": {"procs": 2}}`,
		"shard settings on dimension": `{"example": "canada2", "kind": "dimension", "shard": {}}`,
		"unknown kind":                `{"example": "canada2", "kind": "turbo"}`,
		"shard with scenarios":        `{"example": "canada2", "kind": "shard", "scenarios": {"scenarios": [{"name": "s", "rate_scale": 1.5}]}}`,
		"shard with start":            `{"example": "canada2", "kind": "shard", "start": [2, 2]}`,
		"shard with eval timeout":     `{"example": "canada2", "kind": "shard", "eval_timeout_ms": 50}`,
		"negative procs":              `{"example": "canada2", "kind": "shard", "shard": {"procs": -1}}`,
		"negative lease ttl":          `{"example": "canada2", "kind": "shard", "shard": {"lease_ttl_ms": -5}}`,
		"axis out of range":           `{"example": "canada2", "kind": "shard", "shard": {"axis": 2}}`,
		"axis below -1":               `{"example": "canada2", "kind": "shard", "shard": {"axis": -2}}`,
		"negative slab retries":       `{"example": "canada2", "kind": "shard", "shard": {"slab_retries": -1}}`,
	} {
		if _, err := ParseJob([]byte(spec)); err == nil {
			t.Errorf("ParseJob accepted %s", name)
		}
	}
}

// TestJournalShardDirRetired: retiring a job's checkpoint also removes
// its coordinator spool, and the journal scan never mistakes the spool
// directory for a record.
func TestJournalShardDirRetired(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&Record{ID: "x", State: StateRunning, Spec: []byte(`{}`), Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
	dir := j.ShardDir("x")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, bad, err := j.Scan()
	if err != nil || len(bad) != 0 || len(recs) != 1 {
		t.Fatalf("scan with shard spool present: recs=%d bad=%v err=%v", len(recs), bad, err)
	}
	j.RetireCheckpoint("x")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("shard spool survived retirement")
	}
	if _, err := j.Load("x"); err != nil {
		t.Fatalf("record lost with the spool: %v", err)
	}
}
