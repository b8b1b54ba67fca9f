// Command perfbench is WINDIM's end-to-end benchmark. It drives three user
// paths through the public APIs of internal/core, internal/service and
// internal/sim from one process, checks every answer, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload dimension-mesh --seed 1 --seconds 30 --trace 0
//
// --trace 0 runs the named workload untraced and reports the end-to-end
// metrics; --trace 1 runs the traced pass of every path, timing calls into
// each layer from this package, and reports the per-layer metrics.
// BENCHMARK.md next to this file explains every workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted operations and the ones that failed a
// correctness gate, with a reason per failure.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// env is what every workload gets: its inputs' seed, its measuring time,
// and a scratch directory inside the checkout.
type env struct {
	seed    uint64
	seconds time.Duration
	scratch string
}

// e2e is one untraced workload run: repeated set-ups, then per-operation
// latencies over the measured window.
type e2e struct {
	setup     []time.Duration
	lat       []float64 // milliseconds, completed operations only
	wall      time.Duration
	completed int
	// rssMB is the peak resident set when the measured window closed,
	// before the correctness gates run.
	rssMB float64
	tally
}

// closeWindow records the wall time since start and the peak resident set.
func (r *e2e) closeWindow(start time.Time) error {
	r.wall = time.Since(start)
	var err error
	r.rssMB, err = peakRSSMB()
	return err
}

var workloads = map[string]func(*env) (*e2e, error){
	"dimension-mesh": runDimension,
	"windimd-mixed":  runWindimd,
	"netsim-faults":  runNetsim,
}

func main() {
	workload := flag.String("workload", "", "dimension-mesh | windimd-mixed | netsim-faults")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed makes the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dimension-mesh|windimd-mixed|netsim-faults --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, scratch: scratch}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(e, *workload)
	} else {
		var res *e2e
		if res, err = run(e); err == nil {
			rep, err = res.report()
		}
	}
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// report turns a run into the end-to-end metrics.
func (r *e2e) report() (*report, error) {
	for _, why := range r.reasons {
		fmt.Fprintln(os.Stderr, "FAIL:", why)
	}
	if r.attempted == 0 || r.completed == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	t, err := tailOf(r.lat)
	if err != nil {
		return nil, err
	}
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	fmt.Printf("latency_ms.tail is %v\n", t)
	fmt.Printf("set-up repeated %d times; setup_s is their median\n", len(setup))
	m := map[string]metric{
		"setup_s":          {median(setup), "s"},
		"latency_ms.p50":   {median(r.lat), "ms"},
		"latency_ms.tail":  {t.Value, "ms"},
		"throughput_per_s": {float64(r.completed) / r.wall.Seconds(), "1/s"},
		"ok_ratio":         {float64(r.attempted-r.failed) / float64(r.attempted), "ratio"},
		"max_rss_mb":       {r.rssMB, "MB"},
	}
	return finish(m, r.tally)
}

// finish checks every value is a finite number and builds the report.
func finish(m map[string]metric, t tally) (*report, error) {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
