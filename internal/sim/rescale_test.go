package sim

import (
	"math"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topo"
)

// rescaled returns the network and config with time running k times
// faster: every class rate and channel capacity multiplied by k, every
// duration (run length, warmup, acknowledgement and propagation delays,
// burst on-period, fault window) divided by k. Message lengths and
// dimensionless knobs (background share, fault factors) are unchanged.
func rescaled(n *netmodel.Network, cfg Config, k float64) (*netmodel.Network, Config) {
	m := *n
	m.Classes = append([]netmodel.Class(nil), n.Classes...)
	m.Channels = append([]netmodel.Channel(nil), n.Channels...)
	for r := range m.Classes {
		m.Classes[r].Rate *= k
		m.Classes[r].AckDelay /= k
	}
	for l := range m.Channels {
		m.Channels[l].Capacity *= k
		m.Channels[l].PropDelay /= k
	}
	cfg.Duration /= k
	cfg.Warmup /= k
	cfg.BurstOn /= k
	if f := cfg.Faults; f != nil {
		g := &FaultSpec{
			Outages:      append([]Outage(nil), f.Outages...),
			Degradations: append([]Degradation(nil), f.Degradations...),
			Surges:       append([]Surge(nil), f.Surges...),
		}
		for i := range g.Outages {
			g.Outages[i].Start /= k
			g.Outages[i].End /= k
		}
		for i := range g.Degradations {
			g.Degradations[i].Start /= k
			g.Degradations[i].End /= k
		}
		for i := range g.Surges {
			g.Surges[i].Start /= k
			g.Surges[i].End /= k
		}
		cfg.Faults = g
	}
	return &m, cfg
}

// TestTimeRescalingMetamorphic is a metamorphic test of the whole
// simulator: running time k times faster must reproduce the trajectory
// event for event, with every rate-valued output multiplied by k, every
// time-valued output divided by k, and every time average unchanged.
// k is a power of two, so every scaled quantity is exact in floating
// point and the relations hold bit for bit. Under the calendar
// scheduler this also pins down that the bucket width, which is
// measured in simulated seconds and so scales with k, never reaches the
// output.
func TestTimeRescalingMetamorphic(t *testing.T) {
	canada, canadaCfg := faultedCanada4()
	mesh, meshCfg := meshLarge(t)
	drain, drainCfg := outageDrain(t)
	cases := []struct {
		name string
		n    *netmodel.Network
		cfg  Config
	}{
		{"canada4-faults/calendar", canada, canadaCfg},
		{"canada4-faults/heap", canada, withScheduler(canadaCfg, SchedulerHeap)},
		{"mesh-large/calendar", mesh, meshCfg},
		{"mesh-large/heap", mesh, withScheduler(meshCfg, SchedulerHeap)},
		{"outage-drain/calendar", drain, drainCfg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 11
			base, err := Run(tc.n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []float64{2, 8, 1.0 / 8} {
				sn, scfg := rescaled(tc.n, cfg, k)
				got, err := Run(sn, scfg)
				if err != nil {
					t.Fatalf("k=%v: %v", k, err)
				}
				sameRescaled(t, tc.name, k, base, got)
			}
		})
	}
}

// faultedCanada4 is the Fig. 4.6 Canada-4 operating point under an
// outage, a degradation and a surge.
func faultedCanada4() (*netmodel.Network, Config) {
	return topo.Canada4Class(9.957, 4.419, 7.656, 7.968), Config{
		Windows:  []int{4, 4, 3, 2},
		Duration: 300,
		Warmup:   30,
		Faults: &FaultSpec{
			Outages:      []Outage{{Channel: 1, Start: 60, End: 80}},
			Degradations: []Degradation{{Channel: 0, Start: 100, End: 160, Factor: 0.5}},
			Surges:       []Surge{{Class: 1, Start: 120, End: 200, Factor: 2.5}},
		},
	}
}

func withScheduler(cfg Config, sc Scheduler) Config {
	cfg.Scheduler = sc
	return cfg
}

// sameRescaled asserts got is base with time running k times faster,
// bit for bit.
func sameRescaled(t *testing.T, name string, k float64, base, got *Result) {
	t.Helper()
	eq := func(what string, want, have float64) {
		t.Helper()
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("%s k=%v: %s = %v, want %v", name, k, what, have, want)
		}
	}
	if got.Events != base.Events {
		t.Fatalf("%s k=%v: Events = %d, want %d", name, k, got.Events, base.Events)
	}
	if got.Deadlocked != base.Deadlocked {
		t.Fatalf("%s k=%v: Deadlocked = %v, want %v", name, k, got.Deadlocked, base.Deadlocked)
	}
	eq("Throughput", base.Throughput*k, got.Throughput)
	eq("Delay", base.Delay/k, got.Delay)
	eq("Power", base.Power*k*k, got.Power)
	eq("Clock", base.Clock/k, got.Clock)
	for r := range base.PerClass {
		b, g := &base.PerClass[r], &got.PerClass[r]
		if g.Delivered != b.Delivered {
			t.Fatalf("%s k=%v: class %d Delivered = %d, want %d", name, k, r, g.Delivered, b.Delivered)
		}
		eq("Offered", b.Offered*k, g.Offered)
		eq("class Throughput", b.Throughput*k, g.Throughput)
		eq("MeanDelay", b.MeanDelay/k, g.MeanDelay)
		eq("DelayP95", b.DelayP95/k, g.DelayP95)
		eq("DelayCI95", b.DelayCI95/k, g.DelayCI95)
		eq("MeanInNetwork", b.MeanInNetwork, g.MeanInNetwork)
		eq("MeanBacklog", b.MeanBacklog, g.MeanBacklog)
	}
	for l := range base.ChannelUtilization {
		eq("ChannelUtilization", base.ChannelUtilization[l], got.ChannelUtilization[l])
		eq("ChannelMeanQueue", base.ChannelMeanQueue[l], got.ChannelMeanQueue[l])
	}
	for i := range base.NodeOccupancy {
		for j := range base.NodeOccupancy[i] {
			eq("NodeOccupancy", base.NodeOccupancy[i][j], got.NodeOccupancy[i][j])
		}
	}
}
