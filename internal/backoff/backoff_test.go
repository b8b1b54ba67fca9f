package backoff

import (
	"testing"
	"time"
)

// backoffBase is the deterministic floor Delay jitters on top of:
// 100ms doubling per attempt, capped at 5s.
func backoffBase(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	base := 100 * time.Millisecond << shift
	if base > 5*time.Second {
		base = 5 * time.Second
	}
	return base
}

// TestBackoffDelayEnvelope pins the contract every retry loop in the
// daemon and the shard coordinator relies on: for attempt n the delay is
// base(n) plus up to 50% jitter — never below the deterministic base,
// never above 1.5x of it.
func TestBackoffDelayEnvelope(t *testing.T) {
	for attempt := 0; attempt <= 12; attempt++ {
		base := backoffBase(attempt)
		for i := 0; i < 64; i++ {
			d := Delay(attempt)
			if d < base || d > base+base/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, base+base/2)
			}
		}
	}
}

// TestBackoffDelayAttemptZero: the first retry waits on the order of
// 100ms — long enough to let a transient clear, short enough not to
// stall a healthy queue.
func TestBackoffDelayAttemptZero(t *testing.T) {
	for i := 0; i < 64; i++ {
		d := Delay(0)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("attempt 0: delay %v outside [100ms, 150ms]", d)
		}
	}
}

// TestBackoffDelayCap: the base stops growing at 5s, so even absurd
// attempt counts (a job retried for hours) never wait beyond 7.5s —
// and never overflow into a negative shift.
func TestBackoffDelayCap(t *testing.T) {
	for _, attempt := range []int{6, 7, 20, 63, 1 << 20} {
		for i := 0; i < 16; i++ {
			d := Delay(attempt)
			if d < 5*time.Second || d > 7500*time.Millisecond {
				t.Fatalf("attempt %d: delay %v outside [5s, 7.5s]", attempt, d)
			}
		}
	}
}

// TestBackoffDelayMonotonicFloor: the lower envelope never shrinks as
// attempts accumulate — later retries always wait at least as long as
// earlier ones could.
func TestBackoffDelayMonotonicFloor(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 0; attempt <= 10; attempt++ {
		base := backoffBase(attempt)
		if base < prev {
			t.Fatalf("base(%d) = %v below base(%d) = %v", attempt, base, attempt-1, prev)
		}
		prev = base
	}
}

// TestBackoffDelayNegativeAttempt: callers sometimes compute
// "failures - 1" style arguments; a negative attempt must behave like
// attempt 0, not panic on a negative shift.
func TestBackoffDelayNegativeAttempt(t *testing.T) {
	for _, attempt := range []int{-1, -5, -1 << 30} {
		d := Delay(attempt)
		if d < 100*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside attempt-0 envelope", attempt, d)
		}
	}
}

// TestBackoffDelayJitters: the jitter must actually spread retries —
// identical delays across a large sample would synchronise every
// worker's relaunch into the thundering herd the jitter exists to break.
func TestBackoffDelayJitters(t *testing.T) {
	seen := map[time.Duration]bool{}
	for i := 0; i < 256; i++ {
		seen[Delay(3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("256 samples produced %d distinct delays; jitter missing", len(seen))
	}
}
