package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The netsim-faults workload: a closed loop of replication batches on the
// Fig. 4.6 Canada-4 operating point under the outage, degradation and
// surge schedule of paperbench's sim_replications entry. Only the
// simulator, its scheduler and the random streams run here.
const (
	// batchReps replications make one batch: enough work per operation
	// that a scheduling stall of a few milliseconds moves one batch's
	// latency, not the tail.
	batchReps    = 16
	batchWorkers = 2
	// netsimSetupReps is how often the set-up, which takes well under a
	// millisecond, is repeated for its median.
	netsimSetupReps = 51
)

// netsimConfig is the replication config; its seed is set per batch.
func netsimConfig() sim.Config {
	return sim.Config{
		Windows:  numeric.IntVector{4, 4, 3, 2},
		Duration: 300,
		Warmup:   30,
		Faults: &sim.FaultSpec{
			Outages:      []sim.Outage{{Channel: 1, Start: 60, End: 80}},
			Degradations: []sim.Degradation{{Channel: 0, Start: 100, End: 160, Factor: 0.5}},
			Surges:       []sim.Surge{{Class: 1, Start: 120, End: 200, Factor: 2.5}},
		},
	}
}

// canada4Fig46 is the Canada-4 network at the Fig. 4.6 loads.
func canada4Fig46() *netmodel.Network { return topo.Canada4Class(9.957, 4.419, 7.656, 7.968) }

// netsimSetup builds the network, validates the config by building a
// runner, and draws the batch seeds.
func netsimSetup(seed uint64, batches int) (*netmodel.Network, []uint64, error) {
	n := canada4Fig46()
	if _, err := sim.NewRunner(n, netsimConfig()); err != nil {
		return nil, nil, err
	}
	src := rng.New(seed)
	seeds := make([]uint64, batches)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return n, seeds, nil
}

// maxBatches bounds the seeds drawn at set-up; the loop wraps around if it
// outruns them.
const maxBatches = 4096

func runNetsim(e *env) (*e2e, error) {
	res := &e2e{}
	var n *netmodel.Network
	var seeds []uint64
	for i := 0; i < netsimSetupReps; i++ {
		t0 := time.Now()
		ni, si, err := netsimSetup(e.seed, maxBatches)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
		n, seeds = ni, si
	}
	var events int64
	start := time.Now()
	deadline := start.Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		cfg := netsimConfig()
		cfg.Seed = seeds[i%len(seeds)]
		res.attempted++
		t0 := time.Now()
		b, err := sim.RunReplications(context.Background(), n, cfg, batchReps, batchWorkers)
		d := time.Since(t0)
		if err == nil {
			err = checkBatch(b)
		}
		if err != nil {
			res.fail("batch seed %d: %v", cfg.Seed, err)
			continue
		}
		res.completed++
		res.lat = append(res.lat, ms(d))
		events += batchEvents(b)
	}
	if err := res.closeWindow(start); err != nil {
		return nil, err
	}
	fmt.Printf("sim events per second: %.0f\n", float64(events)/res.wall.Seconds())
	// Worker-count independence, checked once and untimed.
	cfg := netsimConfig()
	cfg.Seed = seeds[0]
	if err := checkWorkerIndependence(n, cfg); err != nil {
		res.attempted++
		res.fail("batch seed %d: %v", cfg.Seed, err)
	}
	return res, nil
}

// checkBatch requires every replication of a batch to have completed.
func checkBatch(b *sim.BatchResult) error {
	if b.Completed != batchReps || b.Failed != 0 {
		return fmt.Errorf("%d of %d replications completed", b.Completed, batchReps)
	}
	for _, r := range b.Reps {
		if r.Result == nil || r.Result.Events == 0 {
			return fmt.Errorf("replication %d executed no events", r.Rep)
		}
	}
	return nil
}

func batchEvents(b *sim.BatchResult) int64 {
	var n int64
	for _, r := range b.Reps {
		if r.Result != nil {
			n += r.Result.Events
		}
	}
	return n
}

// checkWorkerIndependence runs the batch with batchWorkers and with one
// worker and requires bit-identical aggregates and replications.
func checkWorkerIndependence(n *netmodel.Network, cfg sim.Config) error {
	par, err := sim.RunReplications(context.Background(), n, cfg, batchReps, batchWorkers)
	if err != nil {
		return err
	}
	ser, err := sim.RunReplications(context.Background(), n, cfg, batchReps, 1)
	if err != nil {
		return err
	}
	if a, b := batchFingerprint(par), batchFingerprint(ser); a != b {
		return fmt.Errorf("%d-worker batch differs from the 1-worker batch:\n%s\n%s", batchWorkers, a, b)
	}
	return nil
}

// batchFingerprint prints every number of a batch; %v formats floats in
// their shortest exact form, so equal fingerprints mean equal bits.
func batchFingerprint(b *sim.BatchResult) string {
	s := fmt.Sprintf("%d %d %d %v %v %v %v %v %v %+v", b.Completed, b.Failed, b.Deadlocked,
		b.Throughput, b.ThroughputCI95, b.Delay, b.DelayCI95, b.Power, b.PowerCI95, b.PerClass)
	for _, r := range b.Reps {
		s += fmt.Sprintf(" | %d %d %v", r.Rep, r.Seed, r.Err)
		if r.Result != nil {
			s += fmt.Sprintf(" %+v", *r.Result)
		}
	}
	return s
}
