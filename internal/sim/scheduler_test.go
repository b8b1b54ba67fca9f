package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topo"
)

// drainBoth pushes the same (at, kind, class, channel, msg) stream into a
// heap and a calendar queue (interleaved with pops where popAfter[i] is
// set) and asserts the two produce the identical pop sequence — not just
// a correctly ordered one. seq is assigned by each queue internally, so
// agreement here pins down the full (at, seq) FIFO contract. It returns
// the drained calendar queue so callers can check its mode switches.
func drainBoth(t *testing.T, name string, events []event, popAfter map[int]int) *calendarQueue {
	t.Helper()
	h := &heapQueue{}
	c := newCalendarQueue()
	check := func(i int) {
		t.Helper()
		he, ce := h.pop(), c.pop()
		if he != ce {
			t.Fatalf("%s: pop %d diverges: heap %+v, calendar %+v", name, i, he, ce)
		}
	}
	popped := 0
	for i, e := range events {
		h.pushMsg(e.at, e.kind, int(e.class), int(e.channel), e.msg)
		c.pushMsg(e.at, e.kind, int(e.class), int(e.channel), e.msg)
		for k := 0; k < popAfter[i] && popped < i+1; k++ {
			check(popped)
			popped++
		}
	}
	for ; popped < len(events); popped++ {
		if h.empty() != c.empty() {
			t.Fatalf("%s: emptiness diverges at pop %d", name, popped)
		}
		check(popped)
	}
	if !h.empty() || !c.empty() {
		t.Fatalf("%s: queues not empty after draining all pushes", name)
	}
	return c
}

// wantSwitches asserts the calendar queue switched modes at least the
// given number of times in each direction.
func wantSwitches(t *testing.T, name string, c *calendarQueue, spills, collapses int) {
	t.Helper()
	if c.spills < spills || c.collapses < collapses {
		t.Fatalf("%s: %d spills and %d collapses, want at least %d and %d",
			name, c.spills, c.collapses, spills, collapses)
	}
}

// TestSchedulerPopSequenceAdversarial feeds both queue implementations
// inputs chosen to stress the calendar's weak points: many-way timestamp
// ties (seq FIFO across one bucket), far-future outliers (the vbOf clamp
// and width re-estimation on resize), pushes behind the dequeue scan
// (the curVB re-anchor), and enough volume to force grow and shrink
// resizes.
func TestSchedulerPopSequenceAdversarial(t *testing.T) {
	mk := func(at float64, i int) event {
		return event{at: at, kind: evArrival, class: int16(i % 7), channel: int32(i), msg: int32(i)}
	}

	t.Run("all-simultaneous", func(t *testing.T) {
		var es []event
		for i := 0; i < 200; i++ {
			es = append(es, mk(42.0, i))
		}
		drainBoth(t, "all-simultaneous", es, nil)
	})

	t.Run("tie-clusters", func(t *testing.T) {
		// Clusters of equal timestamps in non-monotone push order.
		var es []event
		times := []float64{3, 1, 3, 2, 1, 2, 3, 1, 0, 0}
		for rep := 0; rep < 30; rep++ {
			for _, at := range times {
				es = append(es, mk(at, len(es)))
			}
		}
		drainBoth(t, "tie-clusters", es, nil)
	})

	t.Run("far-future-outliers", func(t *testing.T) {
		// Outliers past the int64 virtual-bucket range exercise the vbOf
		// clamp; mixing them with dense near-term events wrecks any
		// mean-based width estimate and forces the median-gap one.
		var es []event
		for i := 0; i < 100; i++ {
			switch i % 10 {
			case 3:
				es = append(es, mk(1e18, i))
			case 7:
				es = append(es, mk(math.MaxFloat64/2, i))
			default:
				es = append(es, mk(float64(i)*1e-6, i))
			}
		}
		drainBoth(t, "far-future-outliers", es, nil)
	})

	t.Run("push-behind-scan", func(t *testing.T) {
		// Pop deep into the calendar, then push timestamps behind the
		// scan position to force the curVB re-anchor path.
		var es []event
		for i := 0; i < 40; i++ {
			es = append(es, mk(100+float64(i), i))
		}
		for i := 40; i < 80; i++ {
			es = append(es, mk(float64(i-40), i)) // behind everything popped so far
		}
		drainBoth(t, "push-behind-scan", es, map[int]int{39: 20})
	})

	t.Run("grow-shrink-churn", func(t *testing.T) {
		// Alternating bulk pushes and drains cross the resize thresholds
		// in both directions.
		var es []event
		pops := map[int]int{}
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 600; i++ {
			es = append(es, mk(math.Trunc(r.Float64()*50)/2, i)) // coarse grid: many ties
			if i%37 == 36 {
				pops[i] = 30
			}
		}
		drainBoth(t, "grow-shrink-churn", es, pops)
	})

	t.Run("random-interleaved", func(t *testing.T) {
		for seed := int64(0); seed < 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			var es []event
			pops := map[int]int{}
			for i := 0; i < 500; i++ {
				at := r.Float64() * 1000
				if r.Intn(4) == 0 {
					at = float64(r.Intn(8)) // frequent exact ties
				}
				es = append(es, mk(at, i))
				if r.Intn(3) == 0 {
					pops[i] = r.Intn(4)
				}
			}
			drainBoth(t, "random-interleaved", es, pops)
		}
	})

	// The remaining cases cross the small/large mode boundary: small mode
	// holds at most calSmallMax events, the push past it spills into the
	// directory, and a pop leaving fewer than calCollapse collapses back.

	t.Run("mode-oscillation", func(t *testing.T) {
		// Each cycle climbs to 45 pending events and drains to 4. Times
		// drift forward like a simulator clock but overlap the previous
		// cycle, so pushes land behind events already served.
		var es []event
		pops := map[int]int{}
		r := rand.New(rand.NewSource(7))
		pending := 0
		for cycle := 0; cycle < 8; cycle++ {
			for k := 0; k < 45-pending; k++ {
				es = append(es, mk(float64(cycle)*10+math.Trunc(r.Float64()*80)/4, len(es)))
			}
			pops[len(es)-1] = 41
			pending = 4
		}
		c := drainBoth(t, "mode-oscillation", es, pops)
		wantSwitches(t, "mode-oscillation", c, 8, 8)
	})

	t.Run("ties-straddle-spill", func(t *testing.T) {
		// One timestamp fills the small array and keeps arriving through
		// the spill, the pops down to the collapse, and the next spill:
		// FIFO among the ties must survive both moves.
		var es []event
		pops := map[int]int{}
		pending := 0
		for cycle := 0; cycle < 4; cycle++ {
			for k := 0; k < 40; k++ {
				at := 5.0
				if k%5 == 4 {
					at = 5 + float64(k%3)
				}
				es = append(es, mk(at, len(es)))
			}
			pops[len(es)-1] = pending + 40 - 3 // down to 3 left
			pending = 3
		}
		c := drainBoth(t, "ties-straddle-spill", es, pops)
		wantSwitches(t, "ties-straddle-spill", c, 4, 4)
	})

	t.Run("outliers-across-modes", func(t *testing.T) {
		// Far-future outliers enter in small mode and stay queued through
		// every spill and collapse while near-term events churn below
		// them; the spill's width estimate sees them each time.
		var es []event
		pops := map[int]int{}
		es = append(es, mk(1e18, 0), mk(math.MaxFloat64/2, 1), mk(1e18, 2))
		pending := 3
		for cycle := 0; cycle < 5; cycle++ {
			for k := 0; k < 36; k++ {
				es = append(es, mk(float64(cycle)+float64(k)*1e-3, len(es)))
			}
			pops[len(es)-1] = pending + 36 - 5 // down to the 3 outliers plus 2
			pending = 5
		}
		c := drainBoth(t, "outliers-across-modes", es, pops)
		wantSwitches(t, "outliers-across-modes", c, 5, 5)
	})

	t.Run("push-behind-scan-large", func(t *testing.T) {
		// Spill, pop deep into the directory while staying in large
		// mode, then push behind the scan, repeatedly.
		var es []event
		pops := map[int]int{}
		for i := 0; i < 60; i++ {
			es = append(es, mk(100+float64(i), i))
		}
		pops[59] = 30
		for round := 0; round < 5; round++ {
			for k := 0; k < 20; k++ {
				es = append(es, mk(float64(round*20+k)/3, len(es)))
			}
			pops[len(es)-1] = 15
		}
		c := drainBoth(t, "push-behind-scan-large", es, pops)
		wantSwitches(t, "push-behind-scan-large", c, 1, 1)
	})
}

// sameResult asserts two Results are bit-identical: every float compared
// by Float64bits, every count exactly. This is the scheduler contract —
// the queue implementation must be invisible in every output.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	f64 := func(what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: %s differs: %v (%#x) vs %v (%#x)",
				label, what, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	}
	if a.Events != b.Events {
		t.Fatalf("%s: Events differ: %d vs %d", label, a.Events, b.Events)
	}
	if a.Deadlocked != b.Deadlocked {
		t.Fatalf("%s: Deadlocked differs: %v vs %v", label, a.Deadlocked, b.Deadlocked)
	}
	f64("Throughput", a.Throughput, b.Throughput)
	f64("Delay", a.Delay, b.Delay)
	f64("Power", a.Power, b.Power)
	f64("Clock", a.Clock, b.Clock)
	if len(a.PerClass) != len(b.PerClass) {
		t.Fatalf("%s: PerClass length differs", label)
	}
	for r := range a.PerClass {
		x, y := a.PerClass[r], b.PerClass[r]
		if x.Delivered != y.Delivered {
			t.Fatalf("%s: class %d Delivered differs: %d vs %d", label, r, x.Delivered, y.Delivered)
		}
		f64("Offered", x.Offered, y.Offered)
		f64("Throughput", x.Throughput, y.Throughput)
		f64("MeanDelay", x.MeanDelay, y.MeanDelay)
		f64("DelayCI95", x.DelayCI95, y.DelayCI95)
		f64("DelayP95", x.DelayP95, y.DelayP95)
		f64("MeanInNetwork", x.MeanInNetwork, y.MeanInNetwork)
		f64("MeanBacklog", x.MeanBacklog, y.MeanBacklog)
	}
	for l := range a.ChannelUtilization {
		f64("ChannelUtilization", a.ChannelUtilization[l], b.ChannelUtilization[l])
		f64("ChannelMeanQueue", a.ChannelMeanQueue[l], b.ChannelMeanQueue[l])
	}
	if len(a.NodeOccupancy) != len(b.NodeOccupancy) {
		t.Fatalf("%s: NodeOccupancy length differs", label)
	}
	for i := range a.NodeOccupancy {
		if len(a.NodeOccupancy[i]) != len(b.NodeOccupancy[i]) {
			t.Fatalf("%s: NodeOccupancy[%d] length differs", label, i)
		}
		for k := range a.NodeOccupancy[i] {
			f64("NodeOccupancy", a.NodeOccupancy[i][k], b.NodeOccupancy[i][k])
		}
	}
}

// meshLarge is the large-population workload: a 64-node mesh with 32
// classes at window 8, acknowledgement delay and background traffic on
// every channel keep about 200 events pending (161-235 at seed 1), so
// the calendar runs its bucket directory, not its small array.
func meshLarge(t testing.TB) (*netmodel.Network, Config) {
	t.Helper()
	n, err := topo.Mesh(64, 64, 32, topo.GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := range n.Classes {
		n.Classes[r].AckDelay = 0.05
	}
	for l := range n.Channels {
		n.Channels[l].Background = 0.2
	}
	w := make([]int, len(n.Classes))
	for r := range w {
		w[r] = 8
	}
	return n, Config{Windows: w, Duration: 60, Warmup: 10}
}

// outageDrain is the mode-crossing workload: one tandem class whose
// window of 40 rides on propagation and acknowledgement delays (about 40
// events pending), drained to one or two pending events by every
// repeated outage of the first channel. The calendar spills and
// collapses once per outage.
func outageDrain(t testing.TB) (*netmodel.Network, Config) {
	t.Helper()
	n, err := topo.Tandem(3, 50000, 40, 1000)
	if err != nil {
		t.Fatal(err)
	}
	n.Classes[0].AckDelay = 0.5
	for l := range n.Channels {
		n.Channels[l].PropDelay = 0.2
	}
	var outages []Outage
	for at := 15.0; at < 60; at += 10 {
		outages = append(outages, Outage{Channel: 0, Start: at, End: at + 4})
	}
	return n, Config{Windows: []int{40}, Duration: 60, Warmup: 10, Faults: &FaultSpec{Outages: outages}}
}

// schedulerMatrix is the bit-identity workload set: each entry
// deliberately lights up a different subsystem (source models, length
// distributions, bursty modulation, finite buffers, isarithmic permits,
// propagation delay, background traffic, faults), so the fused calendar
// run loop in state.run is exercised through every event kind. The last
// two entries drive the calendar's large mode end to end and across the
// mode boundary.
func schedulerMatrix(t *testing.T) []struct {
	name string
	n    *netmodel.Network
	cfg  Config
} {
	t.Helper()
	tandem := func(rate float64) *netmodel.Network {
		n, err := topo.Tandem(3, 50000, rate, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	canada := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	bg := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	for l := range bg.Channels {
		bg.Channels[l].Background = 0.25
	}
	prop := tandem(20)
	for l := range prop.Channels {
		prop.Channels[l].PropDelay = 0.03
	}
	mesh, meshCfg := meshLarge(t)
	drain, drainCfg := outageDrain(t)
	base := Config{Duration: 60, Warmup: 10}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	return []struct {
		name string
		n    *netmodel.Network
		cfg  Config
	}{
		{"canada4-throttled", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
		})},
		{"tandem-backlogged", tandem(30), with(func(c *Config) {
			c.Windows = []int{3}
			c.Source = SourceBacklogged
		})},
		{"bursty-hyperexp", tandem(20), with(func(c *Config) {
			c.Windows = []int{4}
			c.Burstiness = 4
			c.BurstOn = 0.5
			c.LengthCV = 2.5
		})},
		{"erlang-correlated", tandem(20), with(func(c *Config) {
			c.Windows = []int{4}
			c.LengthCV = 0.5
			c.CorrelatedLengths = true
		})},
		{"buffers-permits", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
			c.NodeBuffers = make([]int, len(canada.Nodes))
			for i := range c.NodeBuffers {
				c.NodeBuffers[i] = 6
			}
			c.GlobalPermits = 9
		})},
		{"propdelay", prop, with(func(c *Config) {
			c.Windows = []int{4}
		})},
		{"background", bg, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
		})},
		{"faults", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
			c.Faults = &FaultSpec{
				Outages:      []Outage{{Channel: 1, Start: 20, End: 25}},
				Degradations: []Degradation{{Channel: 0, Start: 25, End: 40, Factor: 0.5}},
				Surges:       []Surge{{Class: 2, Start: 15, End: 30, Factor: 3}},
			}
		})},
		{"mesh-large", mesh, meshCfg},
		{"outage-drain", drain, drainCfg},
	}
}

// TestSchedulerModeSwitches proves the last two matrix entries reach the
// paths they are there for: the mesh spills into the directory and
// stays there (its population never falls below 161), and the outage
// workload spills and collapses around every outage.
func TestSchedulerModeSwitches(t *testing.T) {
	for _, tc := range []struct {
		name              string
		build             func(testing.TB) (*netmodel.Network, Config)
		spills, collapses int
		stays             bool // never collapses once spilled
	}{
		{"mesh-large", meshLarge, 1, 0, true},
		{"outage-drain", outageDrain, 4, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, cfg := tc.build(t)
			ru, err := NewRunner(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ru.Run(1); err != nil {
				t.Fatal(err)
			}
			q := ru.st.calQ
			wantSwitches(t, tc.name, q, tc.spills, tc.collapses)
			if tc.stays && (q.collapses != 0 || q.smallLim != 0) {
				t.Fatalf("%s: left the directory after spilling (%d collapses)", tc.name, q.collapses)
			}
		})
	}
}

// TestSchedulerBitIdentity runs every matrix workload under both
// schedulers and several seeds and demands bit-identical Results.
func TestSchedulerBitIdentity(t *testing.T) {
	for _, tc := range schedulerMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 12345} {
				heapCfg, calCfg := tc.cfg, tc.cfg
				heapCfg.Seed, calCfg.Seed = seed, seed
				heapCfg.Scheduler = SchedulerHeap
				calCfg.Scheduler = SchedulerCalendar
				hr, err := Run(tc.n, heapCfg)
				if err != nil {
					t.Fatalf("seed %d heap: %v", seed, err)
				}
				cr, err := Run(tc.n, calCfg)
				if err != nil {
					t.Fatalf("seed %d calendar: %v", seed, err)
				}
				sameResult(t, tc.name, hr, cr)
			}
		})
	}
}

// TestRunnerReuseBitIdentity pins the replication-reset invariant: a
// Runner re-armed by reset(seed) must reproduce a fresh one-shot Run
// bit-for-bit, including after prior replications under other seeds have
// dirtied every pooled structure.
func TestRunnerReuseBitIdentity(t *testing.T) {
	for _, tc := range schedulerMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			ru, err := NewRunner(tc.n, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the pooled state with two other seeds first.
			for _, warm := range []uint64{2, 99} {
				if _, err := ru.Run(warm); err != nil {
					t.Fatalf("warm seed %d: %v", warm, err)
				}
			}
			cfg := tc.cfg
			cfg.Seed = 7
			fresh, err := Run(tc.n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ru.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "fresh vs reused", fresh, reused)
			again, err := ru.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reused vs reused", reused, again)
		})
	}
}

// TestZeroAllocSteadyState asserts the steady-state event loop allocates
// nothing per event, in the calendar's small mode (Canada-4), its large
// mode (the mesh) and across its mode switches (the outage workload).
// The runner first executes the seed's full trajectory once so every
// pooled structure (message slab, channel rings, calendar directory,
// delay-sample slices) reaches its high-water capacity; the same seed is
// then replayed and stepped through the measured window, where any
// append that grows would be a regression the pool/ring designs exist
// to prevent.
func TestZeroAllocSteadyState(t *testing.T) {
	canada := func(testing.TB) (*netmodel.Network, Config) {
		return topo.Canada4Class(9.957, 4.419, 7.656, 7.968),
			Config{Windows: []int{4, 4, 3, 2}, Duration: 200, Warmup: 20}
	}
	for _, tc := range []struct {
		name   string
		build  func(testing.TB) (*netmodel.Network, Config)
		events int
	}{
		{"canada4", canada, 2000},
		{"mesh-large", meshLarge, 2000},
		{"outage-drain", outageDrain, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, cfg := tc.build(t)
			ru, err := NewRunner(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 1
			if _, err := ru.Run(seed); err != nil {
				t.Fatal(err)
			}
			s := ru.st
			s.reset(seed)
			s.prime()
			// Step past the warmup boundary (where stats.reset runs once)
			// into steady state.
			for s.clock < cfg.Warmup+10 {
				if !s.step() {
					t.Fatal("run ended before steady state")
				}
			}
			// One measured run is the whole window, so even a single
			// allocation in it fails the test (a per-event average would
			// round a rare one, such as a mode switch's, down to zero).
			// AllocsPerRun steps one unmeasured window first.
			total := testing.AllocsPerRun(1, func() {
				for k := 0; k < tc.events; k++ {
					if !s.step() {
						t.Fatal("run ended inside measured window")
					}
				}
			})
			if total != 0 {
				t.Fatalf("steady-state event loop allocates: %v allocs in %d events", total, tc.events)
			}
		})
	}
}
