// Command windim dimensions the end-to-end flow-control windows of a
// message-switched network: the thesis's WINDIM algorithm as a CLI.
//
// Usage:
//
//	windim -example canada2 -rates 20,20
//	windim -spec network.json -evaluator exact -search exhaustive -max-window 8
//	windim -example canada4 -objective min-class
//	windim -example canada2 -sweep 0.5,1,2,4
//	windim -example canada4 -scenarios scenarios.json -robust minmax
//	windim -topo clos:8,4,24 -reduce -search pattern
//
// The network comes from a JSON spec (-spec), a built-in example
// (-example canada2 | canada4 | tandemN), or a synthetic topology
// generator (-topo clos:L,S,C | scalefree:N,M,C | mesh:N,E,C, seeded by
// -topo-seed; rates are scaled to 50% peak channel utilisation). -reduce
// applies the exact model reduction — pruning channels no route uses,
// pruning isolated nodes, merging propagation delays of channels with
// identical using-class sets — before dimensioning. The tool prints the
// power-optimal window vector, the performance at that point, the
// Kleinrock hop-count baseline, and the search trace; -sweep dimensions
// across scaled loads (a Table 4.7 for any network), -objective swaps in
// the fairness criteria.
//
// With -scenarios the tool dimensions robustly against a JSON set of
// operating-condition scenarios (per-channel capacity scales, per-class
// rate scales, optional weights — see examples/scenarios.json): it first
// finds the nominal optimum, then re-optimises the worst-scenario power
// (-robust minmax) or the weighted mean power (-robust weighted) seeded
// from the nominal vector, and prints both vectors' per-scenario
// exposure side by side. -sample-scenarios N generates the scenario set
// instead (deterministic under -scenario-seed, dominated scenarios
// pruned); -degrade-after and -min-scenarios control graceful scenario
// degradation during the robust search.
//
// Long searches can be made durable: -checkpoint keeps the search state
// in an append-only checkpoint log, durable on every commit (cadence
// -checkpoint-every): each write appends only the cache entries learned
// since the last one, and the file is compacted to a single snapshot
// line once the appended records outgrow it. -resume restarts from such
// a file, converging to the bit-identical result of an uninterrupted
// run. -eval-timeout arms a per-candidate watchdog that reroutes stalled
// fixed points into the solver fallback chain.
//
// -exact-engine accelerates exact evaluations (-evaluator exact, and the
// exact tier of the solver fallback chain) by serving every candidate
// from one shared convolution lattice grown incrementally over the
// search, instead of running a fresh exponential recursion per candidate.
// It composes with -workers: lattice sweeps are hyperplane-parallel and
// bit-identical to serial, so the search trajectory is unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/report"
	"repro/internal/shard"
)

func main() {
	// Worker mode must be dispatched before flag parsing: the sharded
	// search coordinator (windim-shard) execs this binary with only this
	// flag, the slab assignment travelling in the SHARD_* environment.
	if len(os.Args) == 2 && os.Args[1] == "-shard-worker" {
		os.Exit(shard.WorkerMain())
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "windim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("windim", flag.ContinueOnError)
	spec := fs.String("spec", "", "JSON network spec file")
	example := fs.String("example", "", "built-in example: canada2, canada4, tandemN")
	topoSpec := fs.String("topo", "", "generate a synthetic topology: clos:L,S,C | scalefree:N,M,C | mesh:N,E,C")
	topoSeed := fs.Uint64("topo-seed", 1, "seed for -topo (same spec and seed, same network)")
	reduce := fs.Bool("reduce", false, "apply exact model reduction (prune unused channels/nodes, merge same-route propagation delays) before dimensioning")
	rates := fs.String("rates", "", "override class arrival rates, e.g. 20,20")
	evaluator := fs.String("evaluator", "sigma", "candidate evaluator: sigma, schweitzer, linearizer, exact")
	search := fs.String("search", "pattern", "optimiser: pattern, exhaustive")
	objective := fs.String("objective", "power", "criterion: power, min-class, sum-class")
	maxWindow := fs.Int("max-window", 0, "upper bound on every window (0 = default)")
	workers := fs.Int("workers", 1, "parallel candidate evaluations: splits the exhaustive box, and speculatively evaluates pattern-search probes (same result as serial)")
	start := fs.String("start", "", "initial windows for the pattern search (default: hop counts)")
	trace := fs.Bool("trace", false, "print the pattern-search base-point trace")
	sweep := fs.String("sweep", "", "comma-separated load scale factors; dimensions the network at each (e.g. 0.5,1,2)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the search, e.g. 10s (0 = none); on expiry the best-so-far windows are reported")
	noFallback := fs.Bool("no-fallback", false, "disable the resilient solver chain (non-converged candidates fail immediately)")
	scenarioFile := fs.String("scenarios", "", "JSON scenario set; dimensions robustly against it instead of the nominal point only")
	robust := fs.String("robust", "minmax", "robust criterion with -scenarios: minmax (worst-scenario power) or weighted (probability-weighted mean power)")
	sampleScenarios := fs.Int("sample-scenarios", 0, "generate N random capacity/rate scenarios and dimension robustly against them (dominated scenarios pruned)")
	scenarioSeed := fs.Uint64("scenario-seed", 1, "seed for -sample-scenarios (same seed, same set)")
	degradeAfter := fs.Int("degrade-after", 0, "exclude a scenario after this many non-converged candidates instead of vetoing them (0 = off)")
	minScenarios := fs.Int("min-scenarios", 0, "abort if scenario degradation would leave fewer active scenarios than this (0 = 1)")
	checkpoint := fs.String("checkpoint", "", "write durable search checkpoints to this file (pattern search only)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "commit cadence of checkpoint writes (0 = every commit)")
	resume := fs.String("resume", "", "resume the search from a checkpoint file written by a previous run with the same model and options")
	exactEngine := fs.Bool("exact-engine", false, "serve exact evaluations from one shared incremental convolution lattice per search instead of a fresh recursion per candidate (exact-evaluator runs and the exact fallback tier)")
	evalTimeout := fs.Duration("eval-timeout", 0, "per-candidate watchdog: a solve exceeding max(this, 8x the rolling mean solve time) is rerouted into the fallback chain (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rateVec, err := cliutil.ParseRates(*rates)
	if err != nil {
		return err
	}
	var n *netmodel.Network
	if *topoSpec != "" {
		if *spec != "" || *example != "" {
			return fmt.Errorf("-topo is mutually exclusive with -spec and -example")
		}
		if rateVec != nil {
			return fmt.Errorf("-rates does not apply to -topo (generated rates are utilisation-scaled); use -sweep to rescale loads")
		}
		n, err = cliutil.ParseTopo(*topoSpec, *topoSeed)
	} else {
		n, err = cliutil.LoadNetwork(*spec, *example, rateVec)
	}
	if err != nil {
		return err
	}
	if *reduce {
		reduced, red, rerr := netmodel.Reduce(n)
		if rerr != nil {
			return rerr
		}
		if red.Total() > 0 {
			fmt.Printf("model reduction: %v\n", red)
		}
		n = reduced
	}
	opts := core.Options{
		MaxWindow:       *maxWindow,
		Workers:         *workers,
		DisableFallback: *noFallback,
		EvalTimeout:     *evalTimeout,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		ResumePath:      *resume,
		ExactEngine:     *exactEngine,
		DegradeAfter:    *degradeAfter,
		MinScenarios:    *minScenarios,
	}
	// Ctrl-C (and a service manager's SIGTERM) cancels the search instead
	// of killing the process: the best-so-far windows are reported and any
	// -checkpoint file stays resumable. A second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.Context = ctx
	switch *evaluator {
	case "sigma":
		opts.Evaluator = core.EvalSigmaMVA
	case "schweitzer":
		opts.Evaluator = core.EvalSchweitzerMVA
	case "linearizer":
		opts.Evaluator = core.EvalLinearizerMVA
	case "exact":
		opts.Evaluator = core.EvalExactMVA
	default:
		return fmt.Errorf("unknown evaluator %q", *evaluator)
	}
	switch *search {
	case "pattern":
		opts.Search = core.PatternSearch
	case "exhaustive":
		opts.Search = core.ExhaustiveSearch
	default:
		return fmt.Errorf("unknown search %q", *search)
	}
	switch *objective {
	case "power":
		opts.Objective = core.ObjNetworkPower
	case "min-class":
		opts.Objective = core.ObjMinClassPower
	case "sum-class":
		opts.Objective = core.ObjSumClassPower
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
	if *start != "" {
		iw, err := cliutil.ParseWindows(*start)
		if err != nil {
			return err
		}
		opts.InitialWindows = iw
	}

	if *sweep != "" {
		scales, err := cliutil.ParseRates(*sweep)
		if err != nil {
			return err
		}
		return runSweep(n, opts, scales)
	}

	if *scenarioFile != "" || *sampleScenarios > 0 {
		var kind core.RobustKind
		switch *robust {
		case "minmax":
			kind = core.RobustMinimax
		case "weighted":
			kind = core.RobustWeighted
		default:
			return fmt.Errorf("unknown robust criterion %q (want minmax or weighted)", *robust)
		}
		var scenarios []core.Scenario
		switch {
		case *scenarioFile != "" && *sampleScenarios > 0:
			return fmt.Errorf("-scenarios and -sample-scenarios are mutually exclusive")
		case *scenarioFile != "":
			data, err := os.ReadFile(*scenarioFile)
			if err != nil {
				return err
			}
			scenarios, err = core.ParseScenarios(data, n)
			if err != nil {
				return err
			}
		default:
			sampled, err := core.SampleScenarios(n, core.SampleOptions{
				Count: *sampleScenarios,
				Seed:  *scenarioSeed,
				// The weighted criterion averages over ALL scenarios, so
				// dominance pruning (a minimax-only argument) must stay off.
				KeepDominated: kind == core.RobustWeighted,
			})
			if err != nil {
				return err
			}
			if pruned := *sampleScenarios - len(sampled); pruned > 0 {
				fmt.Printf("sampled %d scenarios (seed %d), pruned %d dominated\n",
					*sampleScenarios, *scenarioSeed, pruned)
			} else {
				fmt.Printf("sampled %d scenarios (seed %d)\n", *sampleScenarios, *scenarioSeed)
			}
			scenarios = sampled
		}
		return runRobust(n, opts, scenarios, kind)
	}

	res, err := core.Dimension(n, opts)
	if err != nil {
		if res == nil {
			return err
		}
		// Deadline expired mid-search: the partial result still carries
		// the best window vector found before cancellation.
		fmt.Fprintf(os.Stderr, "windim: %v (reporting best-so-far)\n", err)
	}
	kw := core.KleinrockWindows(n)
	base, err := core.Evaluate(n, kw, opts)
	if err != nil {
		return err
	}

	fmt.Printf("network: %s (%d nodes, %d channels, %d classes)\n",
		n.Name, len(n.Nodes), len(n.Channels), len(n.Classes))
	fmt.Printf("evaluator: %v, search: %v\n\n", opts.Evaluator, opts.Search)
	fmt.Printf("optimal windows : %s\n", report.Windows(res.Windows))
	fmt.Printf("network power   : %s (throughput %s msg/s, delay %s s)\n",
		report.Float(res.Metrics.Power, 1),
		report.Float(res.Metrics.Throughput, 2),
		report.Float(res.Metrics.Delay, 4))
	fmt.Printf("kleinrock rule  : %s -> power %s\n\n",
		report.Windows(kw), report.Float(base.Power, 1))

	t := &report.Table{
		Title:   "Per-class performance at the optimal windows",
		Headers: []string{"Class", "Window", "Throughput (msg/s)", "Delay (s)"},
	}
	for r := range n.Classes {
		t.AddRow(n.Classes[r].Name,
			fmt.Sprint(res.Windows[r]),
			report.Float(res.Metrics.ClassThroughput[r], 2),
			report.Float(res.Metrics.ClassDelay[r], 4))
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nsearch: %d objective evaluations, %d cache hits, %d non-converged candidates\n",
		res.Search.Evaluations, res.Search.CacheHits, res.NonConverged)
	if rescued := res.Fallbacks.Rescued(); rescued > 0 {
		fmt.Printf("fallback chain: %d candidate(s) rescued (%v)\n", rescued, res.Fallbacks)
	}
	if res.WatchdogTrips > 0 {
		fmt.Printf("watchdog: %d solve(s) cut short into the fallback chain\n", res.WatchdogTrips)
	}
	if *trace {
		fmt.Println("base points:")
		for _, p := range res.Search.BasePoints {
			fmt.Printf("  %s\n", report.Windows(p))
		}
	}
	return nil
}

// runRobust dimensions the nominal optimum first, then re-optimises the
// robust criterion over the scenario set seeded from the nominal vector
// (which guarantees the minimax result protects the worst scenario at
// least as well), and prints both vectors' per-scenario exposure.
func runRobust(n *netmodel.Network, opts core.Options, scenarios []core.Scenario, kind core.RobustKind) error {
	// Checkpoint/resume applies to the long robust search, not the nominal
	// seeding run (whose checkpoint would also collide on the same path).
	nopts := opts
	nopts.CheckpointPath = ""
	nopts.ResumePath = ""
	nominal, err := core.Dimension(n, nopts)
	if err != nil {
		if nominal == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "windim: nominal search: %v (continuing with best-so-far)\n", err)
	}
	ropts := opts
	ropts.InitialWindows = nominal.Windows
	res, err := core.DimensionRobust(n, scenarios, kind, ropts)
	if err != nil {
		if res == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "windim: %v (reporting best-so-far)\n", err)
	}
	nominalPowers, err := core.EvaluateScenarios(n, scenarios, nominal.Windows, opts)
	if err != nil {
		return err
	}

	fmt.Printf("network: %s (%d nodes, %d channels, %d classes)\n",
		n.Name, len(n.Nodes), len(n.Channels), len(n.Classes))
	fmt.Printf("evaluator: %v, robust criterion: %v, %d scenarios\n\n", opts.Evaluator, kind, len(scenarios))
	fmt.Printf("nominal windows : %s\n", report.Windows(nominal.Windows))
	fmt.Printf("robust windows  : %s\n\n", report.Windows(res.Windows))

	t := &report.Table{
		Title:   "Per-scenario power of both window vectors",
		Headers: []string{"Scenario", "Weight", "Nominal windows", "Robust windows"},
	}
	nominalWorst := math.Inf(1)
	for i := range scenarios {
		if nominalPowers[i] < nominalWorst {
			nominalWorst = nominalPowers[i]
		}
		weight := scenarios[i].Weight
		if weight <= 0 {
			weight = 1
		}
		t.AddRow(scenarios[i].Name, report.Float(weight, 2),
			report.Float(nominalPowers[i], 1), report.Float(res.ScenarioPower[i], 1))
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	if res.WorstScenario >= 0 {
		fmt.Printf("\nworst scenario  : %s\n", scenarios[res.WorstScenario].Name)
	}
	fmt.Printf("worst-case power: %s robust vs %s nominal\n",
		report.Float(res.WorstPower, 1), report.Float(nominalWorst, 1))
	fmt.Printf("weighted power  : %s robust\n", report.Float(res.WeightedPower, 1))
	fmt.Printf("search: %d objective evaluations, %d non-converged candidates\n",
		res.Search.Evaluations, res.NonConverged)
	if rescued := res.Fallbacks.Rescued(); rescued > 0 {
		fmt.Printf("fallback chain: %d evaluation(s) rescued (%v)\n", rescued, res.Fallbacks)
	}
	if res.WatchdogTrips > 0 {
		fmt.Printf("watchdog: %d solve(s) cut short into the fallback chain\n", res.WatchdogTrips)
	}
	for _, d := range res.Degraded {
		fmt.Printf("degraded scenario %q: %s\n", d.Name, d.Reason)
	}
	return nil
}

// runSweep dimensions the network at each load scale: every class rate
// is multiplied by the factor, producing a Table 4.7-style report for
// arbitrary networks.
func runSweep(n *netmodel.Network, opts core.Options, scales []float64) error {
	base := make([]float64, len(n.Classes))
	for r := range n.Classes {
		base[r] = n.Classes[r].Rate
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Load sweep — %s", n.Name),
		Headers: []string{"Scale", "Total rate (msg/s)", "Optimal windows", "Power", "Throughput", "Delay (s)"},
	}
	for _, scale := range scales {
		if scale <= 0 {
			return fmt.Errorf("sweep scale %v must be positive", scale)
		}
		total := 0.0
		for r := range n.Classes {
			n.Classes[r].Rate = base[r] * scale
			total += n.Classes[r].Rate
		}
		res, err := core.Dimension(n, opts)
		if err != nil {
			return fmt.Errorf("sweep scale %v: %w", scale, err)
		}
		t.AddRow(report.Float(scale, 2), report.Float(total, 1),
			report.Windows(res.Windows), report.Float(res.Metrics.Power, 1),
			report.Float(res.Metrics.Throughput, 2), report.Float(res.Metrics.Delay, 4))
	}
	_, err := t.WriteTo(os.Stdout)
	return err
}
