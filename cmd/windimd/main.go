// Command windimd runs WINDIM as a crash-safe, multi-tenant daemon:
// dimensioning jobs are submitted as JSON over HTTP, run on a bounded
// worker pool with admission control and per-job fault containment, and
// journalled durably in a spool directory so a killed daemon resumes
// interrupted searches on restart — converging to the bit-identical
// result an uninterrupted run would have produced.
//
// Usage:
//
//	windimd -addr :8080 -spool /var/spool/windimd -jobs 2 -mem-budget 256MiB
//
// API:
//
//	POST   /jobs             submit a job (see internal/service.JobSpec)
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        one job's record (spec, state, retries, result)
//	DELETE /jobs/{id}        cancel a job
//	GET    /jobs/{id}/events stream the job's events as NDJSON (internal/event)
//	GET    /healthz          liveness (503 while draining)
//	GET    /stats            queue/pool occupancy, admission and resilience counters
//
// SIGTERM or SIGINT drains gracefully: admissions stop, running jobs are
// cancelled (their best-so-far state is already checkpointed), the
// journal is flushed, and the process exits 0. Jobs interrupted by a
// drain — or by a crash — are re-admitted on the next start from the
// same spool.
//
// Jobs submitted with "kind":"shard" run the exhaustive search through
// the multi-process sharded coordinator (internal/shard): the daemon
// relaunches itself as slab workers via the hidden -shard-worker mode,
// and the coordinator spool lives next to the job record so drains and
// crashes resume mid-slab. The coordinator's shard-… events, the same
// ones windim-shard -progress writes, go into the job's event stream
// unchanged and into the log as one rendered line each.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

func main() {
	// Hidden worker mode: kind:"shard" jobs relaunch this executable as
	// slab workers; the slab contract travels in the environment.
	if len(os.Args) == 2 && os.Args[1] == "-shard-worker" {
		os.Exit(shard.WorkerMain())
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "windimd:", err)
		os.Exit(1)
	}
}

// parseBytes reads a byte size like "256MiB", "64m", "1g" or a plain
// integer byte count.
func parseBytes(s string) (int64, error) {
	if s == "" || s == "0" {
		return 0, nil
	}
	low := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(low, u.suffix) {
			low = strings.TrimSuffix(low, u.suffix)
			mult = u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(low), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("windimd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	spool := fs.String("spool", "spool", "job journal directory (records + search checkpoints); restart on the same spool resumes interrupted jobs")
	jobs := fs.Int("jobs", 2, "worker-pool size: jobs dimensioned concurrently")
	queue := fs.Int("queue", 16, "bounded admission queue; a full queue rejects with 429")
	memBudget := fs.String("mem-budget", "0", "convolution-oracle memory budget, e.g. 256MiB (0 = unbounded); exact-engine jobs beyond it are rejected with 429")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-attempt deadline, e.g. 10m (0 = none); on expiry a job reports best-so-far windows marked partial")
	evalTimeout := fs.Duration("eval-timeout", 0, "default per-candidate watchdog (0 = off)")
	retries := fs.Int("retries", 2, "default automatic retries of transient failures per job")
	searchWorkers := fs.Int("search-workers", 4, "clamp on per-job search parallelism")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for running jobs to checkpoint and stop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return err
	}
	if *retries == 0 {
		*retries = -1 // Config: negative disables, zero means default.
	}
	srv, err := service.New(service.Config{
		Spool:            *spool,
		MaxJobs:          *jobs,
		QueueDepth:       *queue,
		MemoryBudget:     budget,
		JobTimeout:       *jobTimeout,
		EvalTimeout:      *evalTimeout,
		MaxRetries:       *retries,
		MaxSearchWorkers: *searchWorkers,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		log.Printf("windimd: listening on %s (spool %s, %d workers)", *addr, *spool, *jobs)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("windimd: %v: draining (running jobs checkpoint and requeue; second signal kills)", sig)
	}
	signal.Reset(os.Interrupt, syscall.SIGTERM) // a second signal kills directly

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("windimd: drained cleanly")
	return nil
}
