// Command simd serves the simulation lab over HTTP.
//
// Usage:
//
//	simd -listen :8080 -jobs 4      # 4 simulation workers
//
// Endpoints:
//
//	POST /v1/batch    run a batch of measurement/experiment points
//	GET  /v1/query    filter/top-N over the stored measurement surface
//	POST /v1/diff     A/B diff of two surfaces (worst movers per bucket)
//	GET  /healthz     liveness + scheduler snapshot
//	GET  /metrics     Prometheus text format (jobs_* scheduler metrics,
//	                  compiler counters, model metrics, request latency)
//	GET  /debug/pprof CPU/heap/goroutine profiles
//
// Results are content-addressed: repeating a batch is served from the
// result cache with a byte-identical body. A full queue returns 503
// with Retry-After. SIGINT/SIGTERM drains in-flight jobs before exit.
//
// Every request gets an ID (echoed in X-Request-Id), propagated into
// scheduler spans, and — unless -quiet — one structured key=value
// access-log line. -store attaches a columnar store file (docs/STORE.md):
// its points seed /v1/query and new measurements are appended to it.
// See docs/SERVICE.md for the API and semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve on")
	workers := flag.Int("jobs", runtime.NumCPU(), "simulation worker pool size (min 1)")
	queue := flag.Int("queue", 128, "scheduler queue depth before /v1/batch returns 503")
	timeout := flag.Duration("timeout", 2*time.Minute, "deadline of each job's context, set when the job starts running; core simulations ignore their context, so it stops none of them")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight work")
	storePath := flag.String("store", "", "columnar measurement store file (.mcst) to serve /v1/query from and append new measurements to")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log")
	flag.Parse()

	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "simd: -jobs must be at least 1")
		os.Exit(2)
	}
	if *queue < 1 {
		fmt.Fprintln(os.Stderr, "simd: -queue must be at least 1")
		os.Exit(2)
	}

	lab := core.NewLabWith(jobs.New(jobs.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Registry:       telemetry.Default(),
	}))
	app := newServer(lab, telemetry.Default())
	if *storePath != "" {
		if err := app.loadStore(*storePath); err != nil {
			log.Fatalf("simd: -store %s: %v", *storePath, err)
		}
	}
	srv := &http.Server{
		Addr:              *listen,
		Handler:           accessLog(app.handler(), telemetry.Default(), *quiet),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("simd: serving on %s (%d workers, queue %d)", *listen, *workers, *queue)

	select {
	case err := <-errc:
		log.Fatalf("simd: %v", err)
	case <-ctx.Done():
	}

	// Stop accepting connections, finish in-flight requests, then drain
	// the scheduler so no simulation is abandoned mid-run.
	log.Printf("simd: shutting down (%s drain budget)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("simd: http shutdown: %v", err)
	}
	if err := lab.Scheduler().Shutdown(dctx); err != nil {
		log.Printf("simd: scheduler shutdown: %v", err)
	}
	log.Printf("simd: bye")
}
