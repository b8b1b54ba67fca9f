package event

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStringRendersEveryType renders one representative event of every
// type through the one renderer, so each log line a type produces is
// pinned here.
func TestStringRendersEveryType(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Type: Queued}, "queued: job admitted"},
		{Event{Type: Started, Attempt: 1}, "started: attempt started (attempt 1)"},
		{Event{Type: Resumed, Attempt: 2}, "resumed: attempt resumed from saved state (attempt 2)"},
		{Event{Type: Commit, Windows: []int{3, 3}, Power: 152.5}, "commit: committed base point (windows [3 3], power 152.5)"},
		{Event{Type: Retry, Attempt: 1, Error: "not converged"}, "retry: attempt failed; retry scheduled (attempt 1): not converged"},
		{Event{Type: Done, Windows: []int{4, 4}, Power: 150}, "done: job finished (windows [4 4], power 150)"},
		{Event{Type: Failed, Error: "boom"}, "failed: job failed: boom"},
		{Event{Type: Canceled, Error: "by request"}, "canceled: job canceled: by request"},
		{Event{Type: ShardPlan, Slabs: 4, Axis: Int(0)}, "shard-plan: partition planned (4 slabs, axis 0)"},
		{Event{Type: ShardRecovered, Slab: Int(1), Epoch: 2, Windows: []int{2, 5}, Power: 140},
			"shard-recovered slab 1: recovered from spool (epoch 2, windows [2 5], power 140)"},
		{Event{Type: ShardAdopted, Slab: Int(0), Epoch: 3, Owner: "simA/pid7", LeaseAgeMS: 120},
			"shard-adopted slab 0: adopted a live lease; watching its owner (epoch 3, owner simA/pid7, renewed 120ms ago)"},
		{Event{Type: ShardLaunched, Slab: Int(2), Attempt: 1, Host: "local", Epoch: 1, Pid: 4242},
			"shard-launched slab 2 on local: worker launched (attempt 1, epoch 1, pid 4242)"},
		{Event{Type: ShardDone, Slab: Int(2), Attempt: 1, Host: "local", Epoch: 1, Windows: []int{5, 4}, Power: 152.25},
			"shard-done slab 2 on local: slab result validated (attempt 1, epoch 1, windows [5 4], power 152.25)"},
		{Event{Type: ShardRetry, Slab: Int(1), Attempt: 1, BackoffMS: 110, Error: "worker exited: exit status 1"},
			"shard-retry slab 1: attempt failed; relaunch scheduled (attempt 1, backoff 110ms): worker exited: exit status 1"},
		{Event{Type: ShardDeadline, Slab: Int(0), Attempt: 1, Host: "simB"},
			"shard-deadline slab 0 on simB: heartbeat stalled; killing worker (attempt 1)"},
		{Event{Type: ShardReassigned, Slab: Int(0), Attempt: 1, Host: "simB"},
			"shard-reassigned slab 0 on simB: slab reassigned (attempt 1)"},
		{Event{Type: ShardSuperseded, Slab: Int(1), Attempt: 2, Host: "simA", Epoch: 2},
			"shard-superseded slab 1 on simA: worker unreachable after kill; superseded (attempt 2, epoch 2)"},
		{Event{Type: ShardFenced, Slab: Int(1), Attempt: 1, Host: "simA", Epoch: 1},
			"shard-fenced slab 1 on simA: worker self-fenced (lost lease ownership) (attempt 1, epoch 1)"},
		{Event{Type: ShardQuarantine, Slab: Int(3), Error: "torn result"},
			"shard-quarantine slab 3: result quarantined: torn result"},
		{Event{Type: ShardLost, Slab: Int(3), Attempt: 3, Error: "3 attempts failed"},
			"shard-lost slab 3: slab lost (attempt 3): 3 attempts failed"},
		{Event{Type: ShardHostDown, Host: "simC", Failures: 3, BackoffMS: 250, Error: "launch refused"},
			"shard-host-down on simC: host blacklisted (3 consecutive failures, backoff 250ms): launch refused"},
		{Event{Type: ShardHostLost, Host: "simC", Failures: 6, Error: "launch refused"},
			"shard-host-lost on simC: host lost for good (6 consecutive failures): launch refused"},
		{Event{Type: ShardDrain}, "shard-drain: draining; workers asked to checkpoint and exit"},
		{Event{Type: ShardAbandoned, Slab: Int(2), Attempt: 1, Host: "simB", Epoch: 1},
			"shard-abandoned slab 2 on simB: abandoning unreachable worker (attempt 1, epoch 1)"},
		{Event{Type: ShardDrained}, "shard-drained: drained; every reachable slab checkpointed"},
		{Event{Type: ShardMerged, Windows: []int{4, 4}, Power: 152.89},
			"shard-merged: merged optimum (windows [4 4], power 152.89)"},
	} {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("%s renders\n  %q\nwant\n  %q", tc.ev.Type, got, tc.want)
		}
		if strings.Contains(tc.ev.String(), "\n") {
			t.Errorf("%s renders more than one line", tc.ev.Type)
		}
	}
	if got := (Event{Type: "mystery"}).String(); got != "mystery" {
		t.Errorf("unknown type renders %q", got)
	}
}

// TestJobEventJSON pins the wire form of job events: the spine plus
// attempt, windows, power and error, in that order, with every shard
// field omitted.
func TestJobEventJSON(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Seq: 1, Type: Queued, At: at}, `{"seq":1,"type":"queued","at":"2026-01-02T03:04:05Z"}`},
		{Event{Seq: 2, Type: Started, At: at, Attempt: 1}, `{"seq":2,"type":"started","at":"2026-01-02T03:04:05Z","attempt":1}`},
		{Event{Seq: 3, Type: Commit, At: at, Windows: []int{3, 2}, Power: 12.5},
			`{"seq":3,"type":"commit","at":"2026-01-02T03:04:05Z","windows":[3,2],"power":12.5}`},
		{Event{Seq: 4, Type: Failed, At: at, Error: "boom"}, `{"seq":4,"type":"failed","at":"2026-01-02T03:04:05Z","error":"boom"}`},
	} {
		got, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}

func TestPower(t *testing.T) {
	for _, tc := range []struct{ f, want float64 }{
		{0.5, 2}, {0, 0}, {-1, 0}, {math.Inf(1), 0}, {math.NaN(), 0},
	} {
		if got := Power(tc.f); got != tc.want {
			t.Errorf("Power(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

// TestFeed checks the emitter: seq and time stamped in order, one NDJSON
// line per event, Since tailing from any point, readers woken by Emit
// and by Close.
func TestFeed(t *testing.T) {
	var buf strings.Builder
	f := NewFeed(&buf)
	evs, notify, closed := f.Since(0)
	if len(evs) != 0 || closed {
		t.Fatalf("new feed: %v events, closed %v", len(evs), closed)
	}
	f.Emit(Event{Type: Queued})
	select {
	case <-notify:
	default:
		t.Fatal("Emit did not wake readers")
	}
	if got := f.Emit(Event{Type: Started, Attempt: 1}); got.Seq != 2 || got.At.IsZero() {
		t.Fatalf("second event stamped seq %d at %v", got.Seq, got.At)
	}
	evs, notify, _ = f.Since(1)
	if len(evs) != 1 || evs[0].Type != Started {
		t.Fatalf("Since(1) = %+v", evs)
	}
	if evs, _, _ := f.Since(99); len(evs) != 0 {
		t.Fatalf("Since past the end = %+v", evs)
	}
	f.Close()
	select {
	case <-notify:
	default:
		t.Fatal("Close did not wake readers")
	}
	if _, _, closed := f.Since(0); !closed {
		t.Fatal("feed not closed")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Seq != i+1 {
			t.Fatalf("line %d %q: seq %d, err %v", i, line, e.Seq, err)
		}
	}
}

// TestFeedConcurrentReaders has readers tail the feed while it is
// written, as concurrent HTTP streams do; run under -race.
func TestFeedConcurrentReaders(t *testing.T) {
	f := NewFeed(nil)
	const n = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := 0
			for {
				evs, notify, closed := f.Since(seq)
				for _, ev := range evs {
					if ev.Seq != seq+1 {
						t.Errorf("reader saw seq %d after %d", ev.Seq, seq)
						return
					}
					seq = ev.Seq
				}
				if closed {
					if seq != n {
						t.Errorf("reader stopped at seq %d of %d", seq, n)
					}
					return
				}
				<-notify
			}
		}()
	}
	for i := 0; i < n; i++ {
		f.Emit(Event{Type: Commit, Windows: []int{i}})
	}
	f.Close()
	wg.Wait()
}
