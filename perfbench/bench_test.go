package main

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/topo"
)

func TestTailSelection(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		stated string
	}{
		{100, 90, 90, 10, "p90 of 100 samples (10 beyond)"},
		{199, 90, 180, 19, "p90 of 199 samples (19 beyond)"},
		{200, 90, 180, 20, "p90 of 200 samples (20 beyond)"},
		{999, 90, 900, 99, "p90 of 999 samples (99 beyond)"},
		{1000, 99, 990, 10, "p99 of 1000 samples (10 beyond)"},
		{1200, 99, 1188, 12, "p99 of 1200 samples (12 beyond)"},
		{10000, 99.9, 9990, 10, "p99.9 of 10000 samples (10 beyond)"},
	} {
		tl, err := tailOf(sample(c.n))
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if tl.Pct != c.pct || tl.Value != c.value || tl.N != c.n || tl.Beyond != c.beyond {
			t.Errorf("n=%d: tail %+v, want p%v = %v with %d beyond", c.n, tl, c.pct, c.value, c.beyond)
		}
		if got := tl.String(); got != c.stated {
			t.Errorf("n=%d: stated as %q, want %q", c.n, got, c.stated)
		}
	}
	if tl, err := tailOf(sample(99)); err == nil {
		t.Fatalf("99 samples: tail %+v, but p90 has only 9 beyond it; want an error", tl)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	tr := newTracer()
	at := func(msec int) time.Time { return tr.origin.Add(time.Duration(msec) * time.Millisecond) }
	op := tr.add("op", 0, at(0), at(100))
	a := tr.add("a", op, at(10), at(30))
	tr.add("b", op, at(20), at(40)) // overlaps a: [10, 40] counts once
	tr.add("grandchild", a, at(12), at(15))
	tr.add("c", op, at(90), at(120)) // runs past its parent: clipped to [90, 100]
	tr.add("other-op", 0, at(50), at(60))

	got := tr.breakdown("op")
	if len(got) != 1 {
		t.Fatalf("breakdown found %d op spans, want 1", len(got))
	}
	if got[0].Covered != 40*time.Millisecond || got[0].Self != 60*time.Millisecond {
		t.Fatalf("op covered %v, self %v; want 40ms covered, 60ms self", got[0].Covered, got[0].Self)
	}
	a1 := tr.breakdown("a")[0]
	if a1.Covered != 3*time.Millisecond || a1.Self != 17*time.Millisecond {
		t.Fatalf("a covered %v, self %v; want 3ms, 17ms", a1.Covered, a1.Self)
	}
	if s := tr.snapshot()[3]; s.Op != op {
		t.Fatalf("grandchild belongs to op %d, want %d", s.Op, op)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Every submission takes 30ms and two senders serve jobs due every
	// 5ms, so the generator falls behind: job i cannot be sent before
	// 30ms*(i/2).
	const work = 30 * time.Millisecond
	plans := make([]jobPlan, 6)
	for i := range plans {
		plans[i] = jobPlan{id: string(rune('a' + i)), due: time.Duration(i) * 5 * time.Millisecond}
	}
	var mu sync.Mutex
	inFlight, peak := 0, 0
	submit := func([]byte) (int, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(work)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return http.StatusAccepted, nil
	}
	start := time.Now()
	runs := openLoop(submit, plans, start)
	if peak > senders {
		t.Fatalf("%d submissions in flight, want at most %d", peak, senders)
	}
	for i, jr := range runs {
		if !jr.due.Equal(start.Add(plans[i].due)) {
			t.Fatalf("job %d due at %v, want start+%v", i, jr.due.Sub(start), plans[i].due)
		}
		if jr.sent.Before(jr.due) {
			t.Fatalf("job %d sent %v before it was due", i, jr.due.Sub(jr.sent))
		}
		floor := time.Duration(i/senders)*work - plans[i].due
		if late := jr.sent.Sub(jr.due); late < floor {
			t.Fatalf("job %d late by %v, want at least %v", i, late, floor)
		}
		// A job's latency runs from its due time to its done event, so it
		// includes the generator's lateness.
		jr.events = []service.Event{{Type: "queued", At: jr.sent}, {Type: "done", At: jr.acked}}
		if lat, ok := jr.latency(); !ok || lat != jr.acked.Sub(jr.due) {
			t.Fatalf("job %d latency %v, want done minus due = %v", i, lat, jr.acked.Sub(jr.due))
		}
	}
}

func TestShadowMismatchWithoutWarmSeed(t *testing.T) {
	n, err := topo.Mesh(16, 8, 6, topo.GenConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base := n.HopVector()
	probe := append(base[:0:0], base...)
	probe[0]++
	for _, withhold := range []bool{false, true} {
		eng, err := core.NewEngine(n, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := newShadowMVA(n)
		if err != nil {
			t.Fatal(err)
		}
		eng.Commit(base)
		sh.commit(base)
		if withhold {
			sh.warm = nil
		}
		v, vErr := eng.ObjectiveValue(probe, core.ObjNetworkPower)
		sol, shErr := sh.solve(probe)
		var shV float64
		if shErr == nil {
			shV, shErr = sh.objective(sol)
		}
		err = sameObjective(v, vErr, shV, shErr)
		if withhold && err == nil {
			t.Fatal("shadow without the warm seed matched the engine bit for bit; the check cannot see a broken mirror")
		}
		if !withhold && err != nil {
			t.Fatalf("shadow with the warm seed: %v", err)
		}
	}
}

func TestWrongWindowsCountAsFailures(t *testing.T) {
	n, err := topo.Mesh(16, 8, 6, topo.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.Dimension(n, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	shifted := append(good.Windows[:0:0], good.Windows...)
	shifted[0]++
	stale := *good // shifted windows, power of the optimum
	stale.Windows = shifted
	moved := *good // shifted windows with their own power: a neighbour beats them
	moved.Windows = shifted
	if moved.Metrics, err = core.Evaluate(n, shifted, core.Options{}); err != nil {
		t.Fatal(err)
	}
	p := dimProblem{seed: 3, net: n}
	var tl tally
	gateDimensions([]dimOutcome{{p, good}, {p, &stale}, {p, &moved}}, &tl)
	if tl.failed != 2 {
		t.Fatalf("%d of 3 results failed the gates (%q), want the 2 with wrong windows", tl.failed, tl.reasons)
	}
}
