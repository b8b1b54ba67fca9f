// Package event is WINDIM's one progress vocabulary: the Event that both
// the windimd job feed (GET /jobs/{id}/events) and the windim-shard
// -progress stream carry, the Feed that stamps, keeps and streams them,
// and the one method that renders an event as a human-readable log line.
package event

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"
)

// Event is one occurrence, serialised as one NDJSON line. Job events
// (queued … canceled) use the seq/type/at spine plus attempt, windows,
// power and error; sharded-search events (type "shard-…") add whichever
// slab, host, lease and partition fields apply. Every field past the
// spine is omitted when unset. Power is always a power (bigger is
// better), never the objective F = 1/P the search minimises.
type Event struct {
	Seq  int       `json:"seq"`
	Type string    `json:"type"`
	At   time.Time `json:"at"`
	// Slab is the slab of a per-slab event; nil on job and run events.
	Slab *int `json:"slab,omitempty"`
	// Attempt counts attempts of the job, or launches of the slab, 1-based.
	Attempt int `json:"attempt,omitempty"`
	// Host, Epoch and Pid name the worker involved: its transport host,
	// its fencing epoch and (on launch, local and ssh transports) its pid.
	Host  string `json:"host,omitempty"`
	Epoch int    `json:"epoch,omitempty"`
	Pid   int    `json:"pid,omitempty"`
	// Owner and LeaseAgeMS describe the live lease a restarted
	// coordinator adopted: who holds it and how long ago it was renewed.
	Owner      string `json:"owner,omitempty"`
	LeaseAgeMS int64  `json:"lease_age_ms,omitempty"`
	// Windows and Power carry a committed base point, a slab optimum or
	// the merged optimum.
	Windows []int   `json:"windows,omitempty"`
	Power   float64 `json:"power,omitempty"`
	Error   string  `json:"error,omitempty"`
	// BackoffMS is the delay scheduled before a retry (or a host's
	// blacklist duration); Failures is a host's consecutive failures.
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	Failures  int   `json:"failures,omitempty"`
	// Slabs and Axis describe the partition (shard-plan only).
	Slabs int  `json:"slabs,omitempty"`
	Axis  *int `json:"axis,omitempty"`
}

// Event types. Job events are emitted by the windimd job runner, shard
// events by the sharded-search coordinator (internal/shard), which
// windim-shard and windimd both stream unchanged.
const (
	Queued   = "queued"   // job admitted and journalled
	Started  = "started"  // attempt began from scratch
	Resumed  = "resumed"  // attempt began from a checkpoint or shard spool
	Commit   = "commit"   // search accepted a new base point
	Retry    = "retry"    // attempt failed transiently; retry scheduled
	Done     = "done"     // job finished with a result
	Failed   = "failed"   // job failed for good
	Canceled = "canceled" // job canceled by request

	ShardPlan       = "shard-plan"       // partition chosen, manifest durable
	ShardRecovered  = "shard-recovered"  // slab satisfied by a result already in the spool
	ShardAdopted    = "shard-adopted"    // live lease found at restart; its owner is watched, not relaunched
	ShardLaunched   = "shard-launched"   // worker started on a host
	ShardDone       = "shard-done"       // slab result validated
	ShardRetry      = "shard-retry"      // attempt failed, relaunch scheduled with backoff
	ShardDeadline   = "shard-deadline"   // heartbeat stalled past the slab deadline, worker killed
	ShardReassigned = "shard-reassigned" // killed or expired owner's slab queued for another worker
	ShardSuperseded = "shard-superseded" // killed worker never exited; attempt abandoned, slab requeued
	ShardFenced     = "shard-fenced"     // worker self-fenced on lost lease ownership
	ShardQuarantine = "shard-quarantine" // torn, mismatched or stale-epoch result renamed aside
	ShardLost       = "shard-lost"       // slab abandoned after exhausting its retry budget
	ShardHostDown   = "shard-host-down"  // host blacklisted after consecutive failures
	ShardHostLost   = "shard-host-lost"  // host abandoned for good
	ShardDrain      = "shard-drain"      // run canceled; workers asked to checkpoint and exit
	ShardAbandoned  = "shard-abandoned"  // worker unreachable through a drain; left to its lease fence
	ShardDrained    = "shard-drained"    // drain finished
	ShardMerged     = "shard-merged"     // every slab accounted for; merged optimum final
)

// phrases is the human wording of each type, used by String.
var phrases = map[string]string{
	Queued:          "job admitted",
	Started:         "attempt started",
	Resumed:         "attempt resumed from saved state",
	Commit:          "committed base point",
	Retry:           "attempt failed; retry scheduled",
	Done:            "job finished",
	Failed:          "job failed",
	Canceled:        "job canceled",
	ShardPlan:       "partition planned",
	ShardRecovered:  "recovered from spool",
	ShardAdopted:    "adopted a live lease; watching its owner",
	ShardLaunched:   "worker launched",
	ShardDone:       "slab result validated",
	ShardRetry:      "attempt failed; relaunch scheduled",
	ShardDeadline:   "heartbeat stalled; killing worker",
	ShardReassigned: "slab reassigned",
	ShardSuperseded: "worker unreachable after kill; superseded",
	ShardFenced:     "worker self-fenced (lost lease ownership)",
	ShardQuarantine: "result quarantined",
	ShardLost:       "slab lost",
	ShardHostDown:   "host blacklisted",
	ShardHostLost:   "host lost for good",
	ShardDrain:      "draining; workers asked to checkpoint and exit",
	ShardAbandoned:  "abandoning unreachable worker",
	ShardDrained:    "drained; every reachable slab checkpointed",
	ShardMerged:     "merged optimum",
}

// String renders the event as one human-readable line: the type, the
// slab and host it concerns, its phrase, the fields it carries, then
// its error. windim-shard prints these lines on stderr and windimd
// writes them to its log.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Type)
	if e.Slab != nil {
		fmt.Fprintf(&b, " slab %d", *e.Slab)
	}
	if e.Host != "" {
		fmt.Fprintf(&b, " on %s", e.Host)
	}
	if p, ok := phrases[e.Type]; ok {
		b.WriteString(": " + p)
	}
	var kv []string
	for _, f := range []struct {
		on     bool
		format string
		v      any
	}{
		{e.Attempt > 0, "attempt %d", e.Attempt},
		{e.Epoch > 0, "epoch %d", e.Epoch},
		{e.Pid > 0, "pid %d", e.Pid},
		{e.Owner != "", "owner %s", e.Owner},
		{e.LeaseAgeMS > 0, "renewed %dms ago", e.LeaseAgeMS},
		{e.Slabs > 0, "%d slabs", e.Slabs},
		{e.Axis != nil, "axis %d", e.Axis},
		{e.Windows != nil, "windows %v", e.Windows},
		{e.Power != 0, "power %v", e.Power},
		{e.Failures > 0, "%d consecutive failures", e.Failures},
		{e.BackoffMS > 0, "backoff %v", time.Duration(e.BackoffMS) * time.Millisecond},
	} {
		if p, ok := f.v.(*int); ok && p != nil {
			f.v = *p
		}
		if f.on {
			kv = append(kv, fmt.Sprintf(f.format, f.v))
		}
	}
	if len(kv) > 0 {
		b.WriteString(" (" + strings.Join(kv, ", ") + ")")
	}
	if e.Error != "" {
		b.WriteString(": " + e.Error)
	}
	return b.String()
}

// Int returns a pointer to v, for the Slab and Axis fields.
func Int(v int) *int { return &v }

// Power converts the objective F = 1/P a search minimises into the power
// P events carry. A non-positive or non-finite F (no feasible point)
// gives 0, which the JSON form omits.
func Power(objective float64) float64 {
	if objective > 0 && !math.IsInf(objective, 0) && !math.IsNaN(objective) {
		return 1 / objective
	}
	return 0
}

// Feed is the one emitter. It stamps each event's seq and time, keeps
// the history readers tail, wakes waiting readers, and mirrors each
// event as one NDJSON line to an optional writer. It is safe for
// concurrent use.
type Feed struct {
	w      io.Writer
	mu     sync.Mutex
	events []Event
	notify chan struct{} // closed and replaced on every event
	closed bool
}

// NewFeed returns an empty feed that mirrors its events to w (nil: none).
func NewFeed(w io.Writer) *Feed {
	return &Feed{w: w, notify: make(chan struct{})}
}

// Emit stamps ev, appends it, writes its NDJSON line in one Write call
// and wakes every reader. It returns the stamped event. The write happens
// under the lock so lines reach the writer in seq order. Write errors are
// dropped: progress reporting never fails the work it reports.
func (f *Feed) Emit(ev Event) Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	ev.Seq = len(f.events) + 1
	ev.At = time.Now().UTC()
	f.events = append(f.events, ev)
	if f.w != nil {
		if line, err := json.Marshal(ev); err == nil {
			_, _ = f.w.Write(append(line, '\n'))
		}
	}
	close(f.notify)
	f.notify = make(chan struct{})
	return ev
}

// Close marks the feed complete and wakes every reader, which drains
// what is left and stops.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	close(f.notify)
	f.notify = make(chan struct{})
}

// Since returns the events after seq, a channel that closes when more
// arrive, and whether the feed is complete.
func (f *Feed) Since(seq int) ([]Event, <-chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq = min(seq, len(f.events))
	return append([]Event(nil), f.events[seq:]...), f.notify, f.closed
}
