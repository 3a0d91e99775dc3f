// Command vcsimd is the simulation daemon: it serves the api/v1 JSON job
// API over HTTP, running (workload, design) simulations on a bounded
// worker pool with priority scheduling, duplicate coalescing and a shared
// on-disk artifact cache.
//
// Usage:
//
//	vcsimd                            # listen on 127.0.0.1:8437, default cache
//	vcsimd -addr :9000 -workers 4     # wider pool on all interfaces
//	vcsimd -cache /tmp/vc -queue 128  # explicit cache dir and queue bound
//	vcsimd -no-cache                  # every job simulates (still coalesces)
//
// Submit jobs with cmd/vcload, the apiv1 client package, or plain curl:
//
//	curl -s localhost:8437/v1/jobs?wait=1 -d '{
//	  "api_version": "v1",
//	  "workload": {"name": "bfs", "params": {"scale": 1}},
//	  "design":   {"preset": "vc-opt"}
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcache/internal/artifact"
	"vcache/internal/experiments"
	"vcache/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8437", "listen address")
	workers := flag.Int("workers", 1, "simulation worker pool size")
	queueCap := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	cacheDir := flag.String("cache", "", "artifact cache directory (empty = default)")
	noCache := flag.Bool("no-cache", false, "disable the artifact cache (jobs still coalesce)")
	retain := flag.Int("retain", 0, "terminal job records kept for status/result fetches; oldest evicted beyond this (0 = default 4096)")
	quiet := flag.Bool("quiet", false, "suppress per-job progress lines on stderr")
	flag.Parse()

	opts := server.Options{
		Workers:    *workers,
		QueueCap:   *queueCap,
		RetainDone: *retain,
	}
	if !*noCache {
		cache, err := artifact.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcsimd: opening artifact cache:", err)
			os.Exit(1)
		}
		opts.Cache = cache
		fmt.Fprintf(os.Stderr, "vcsimd: artifact cache at %s\n", cache.Dir())
	}
	if !*quiet {
		opts.Progress = experiments.ProgressWriter(os.Stderr)
	}

	engine := server.New(opts)
	httpSrv := &http.Server{Addr: *addr, Handler: engine.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vcsimd: serving api/v1 on %s (%d workers, queue %d)\n",
		*addr, *workers, *queueCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "vcsimd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vcsimd: %s — draining\n", s)
	}

	// Graceful drain: stop accepting connections, cancel queued and
	// running jobs, wait briefly for workers to observe cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := engine.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "vcsimd: shutdown timed out:", err)
		os.Exit(1)
	}
}
