package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
)

// State is a job's lifecycle position. Transitions:
//
//	queued -> running -> done | failed | canceled
//	running -> queued          (graceful drain: re-run after restart)
//
// A crash freezes a job at queued or running; the restart scan re-admits
// both, resuming running jobs from their checkpoints.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Retry records one failed attempt of a job that was retried.
type Retry struct {
	// Attempt is the 1-based attempt that failed.
	Attempt int `json:"attempt"`
	// Error is the transient failure that triggered the retry.
	Error string `json:"error"`
	// BackoffMS is the delay (jitter included) before the next attempt.
	BackoffMS int64     `json:"backoff_ms"`
	At        time.Time `json:"at"`
}

// JobResult is the durable outcome of a finished job.
type JobResult struct {
	Windows    []int   `json:"windows"`
	Power      float64 `json:"power"`
	Throughput float64 `json:"throughput,omitempty"`
	Delay      float64 `json:"delay,omitempty"`
	// Evaluations/CacheHits describe the search that produced Windows.
	Evaluations int `json:"evaluations,omitempty"`
	CacheHits   int `json:"cache_hits,omitempty"`
	// NonConverged, FallbacksRescued, WatchdogTrips and Degraded surface
	// the resilience machinery's activity during the run.
	NonConverged     int      `json:"non_converged,omitempty"`
	FallbacksRescued int64    `json:"fallbacks_rescued,omitempty"`
	WatchdogTrips    int64    `json:"watchdog_trips,omitempty"`
	Degraded         []string `json:"degraded,omitempty"`
	// Robust results only: the worst scenario and its power at Windows.
	WorstScenario string  `json:"worst_scenario,omitempty"`
	WorstPower    float64 `json:"worst_power,omitempty"`
	// WarmStarted marks a search seeded from a previous optimum for the
	// same network structure instead of the hop-count rule; Resumed marks
	// a run replayed from a crash checkpoint.
	WarmStarted bool `json:"warm_started,omitempty"`
	Resumed     bool `json:"resumed,omitempty"`
	// Partial marks a best-so-far answer returned at the job's deadline
	// rather than a converged optimum; Note carries the cause.
	Partial bool   `json:"partial,omitempty"`
	Note    string `json:"note,omitempty"`
}

// Record is a job's durable journal entry: everything a restarted daemon
// needs to list, resume, or report the job. Records are published whole
// with durable.WriteFile, so a crash at any instant leaves the previous
// complete record or the new one.
type Record struct {
	ID    string          `json:"id"`
	State State           `json:"state"`
	Spec  json.RawMessage `json:"spec"`
	// Start pins the resolved initial window vector (warm start or
	// explicit) at admission time: resumes must present the identical
	// vector or the checkpoint's model hash will not match.
	Start []int `json:"start,omitempty"`
	// WarmStart marks Start as coming from the warm-start index rather
	// than the submitted spec.
	WarmStart bool `json:"warm_start,omitempty"`
	// Attempts counts started attempts (including the current one).
	Attempts int        `json:"attempts,omitempty"`
	Retries  []Retry    `json:"retries,omitempty"`
	Created  time.Time  `json:"created"`
	Updated  time.Time  `json:"updated"`
	Result   *JobResult `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
}

const (
	recordSuffix     = ".job"
	checkpointSuffix = ".ckpt"
	shardDirSuffix   = ".shard"
)

// Journal is the spool-directory job journal. Each job owns two files:
// <id>.job (the fsynced record) and <id>.ckpt, the pattern-search
// checkpoint log written by the running search itself.
type Journal struct {
	dir string
}

// OpenJournal opens (creating if needed) the spool directory.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: empty spool directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: spool directory: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the spool directory.
func (j *Journal) Dir() string { return j.dir }

// RecordPath returns the journal file of a job id.
func (j *Journal) RecordPath(id string) string {
	return filepath.Join(j.dir, id+recordSuffix)
}

// CheckpointPath returns the search checkpoint file of a job id.
func (j *Journal) CheckpointPath(id string) string {
	return filepath.Join(j.dir, id+checkpointSuffix)
}

// ShardDir returns the coordinator spool of a kind:"shard" job —
// manifest, leases, slab checkpoints and results — kept next to the
// job record so restarts resume it. The journal scan skips directories,
// so spools never masquerade as records.
func (j *Journal) ShardDir(id string) string {
	return filepath.Join(j.dir, id+shardDirSuffix)
}

// Write persists the record durably (durable.WriteFile): a crash
// immediately after Write cannot lose the record.
func (j *Journal) Write(r *Record) error {
	r.Updated = time.Now().UTC()
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("service: marshal job record: %w", err)
	}
	if err := durable.WriteFile(j.RecordPath(r.ID), data); err != nil {
		return fmt.Errorf("service: job record: %w", err)
	}
	return nil
}

// Load reads and decodes one job record.
func (j *Journal) Load(id string) (*Record, error) {
	data, err := os.ReadFile(j.RecordPath(id))
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("service: job record %s: %w", id, err)
	}
	if r.ID != id {
		return nil, fmt.Errorf("service: job record %s names id %q", id, r.ID)
	}
	return &r, nil
}

// Scan lists every readable job record in the spool, oldest first.
// Unreadable records are returned in bad (by file name) rather than
// aborting the scan: one corrupt record must not take the daemon down
// with every healthy job it still holds.
func (j *Journal) Scan() (records []*Record, bad []string, err error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: scanning spool: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, recordSuffix) || strings.HasPrefix(name, ".") {
			continue
		}
		id := strings.TrimSuffix(name, recordSuffix)
		r, lerr := j.Load(id)
		if lerr != nil {
			bad = append(bad, name)
			continue
		}
		records = append(records, r)
	}
	sort.Slice(records, func(a, b int) bool {
		if !records[a].Created.Equal(records[b].Created) {
			return records[a].Created.Before(records[b].Created)
		}
		return records[a].ID < records[b].ID
	})
	return records, bad, nil
}

// RetireCheckpoint removes a finished job's resumable state — the
// search checkpoint (and any .ckpt.delta sidecar an older binary left
// beside it), and a shard job's coordinator spool; the journal record
// (with its result) remains. Best-effort: leftovers are ignored by every
// later run (terminal jobs never resume).
func (j *Journal) RetireCheckpoint(id string) {
	os.Remove(j.CheckpointPath(id))
	os.Remove(j.CheckpointPath(id) + ".delta")
	os.RemoveAll(j.ShardDir(id))
}
