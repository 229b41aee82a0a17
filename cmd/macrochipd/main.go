// Command macrochipd serves the paper's experiments as a long-running
// daemon: clients POST experiment configs (figure-6 panels, benchmark
// studies, scaling rows, resilience sweeps) to a JSON/REST API and fetch
// results as CSV, JSON, or rendered text — the CSV bytes are identical to
// what cmd/figures writes for the same config.
//
//	macrochipd                        serve on 127.0.0.1:8080
//	macrochipd -addr 127.0.0.1:0      serve on an ephemeral port (printed)
//	macrochipd -workers 4 -queue 128  more concurrent experiments
//
//	curl -X POST localhost:8080/v1/experiments \
//	     -d '{"kind":"figure6","pattern":"uniform","quick":true}'
//	curl localhost:8080/v1/experiments/exp-000001/result?format=csv
//	curl localhost:8080/v1/experiments/exp-000001/events   # NDJSON progress
//
// All experiments run on one shared worker pool whose content-addressed
// result cache (-cache-dir, shareable with the CLIs and other daemons)
// collapses overlapping requests into cache hits and single-flight joins.
// SIGTERM/SIGINT drain gracefully: in-flight simulations finish, queued
// work aborts, new submissions get 503.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"macrochip/internal/runflags"
	"macrochip/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	workers := flag.Int("workers", 2, "experiments executed concurrently")
	queueDepth := flag.Int("queue", 64, "bounded queue depth for waiting experiments")
	rate := flag.Float64("rate", 5, "per-client submissions per second")
	burst := flag.Float64("burst", 10, "per-client submission burst")
	bodyLimit := flag.Int64("body-limit", 1<<20, "maximum request body bytes")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request timeout on non-streaming routes")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "maximum wait for in-flight simulations on shutdown")
	rf := runflags.Register(flag.CommandLine, "macrochipd", runflags.Fleet)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	runner, finish, err := rf.Start(1, log)
	if err != nil {
		log.Error("coordinator failed", "error", err)
		os.Exit(1)
	}
	defer finish()

	srv := server.New(server.Config{
		Runner:         runner,
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		RatePerSec:     *rate,
		Burst:          *burst,
		MaxBodyBytes:   *bodyLimit,
		RequestTimeout: *reqTimeout,
		Log:            log,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so scripts (make serve-smoke) can
	// discover an ephemeral port; everything else logs to stderr.
	fmt.Printf("macrochipd: listening on %s\n", ln.Addr())
	log.Info("serving", "addr", ln.Addr().String(), "cache", runner.Cache.Dir(),
		"workers", *workers, "queue", *queueDepth)

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Info("signal received", "signal", got.String())
	case err := <-serveErr:
		log.Error("serve failed", "error", err)
		os.Exit(1)
	}

	// Graceful drain: the queue stops accepting and finishes in-flight
	// simulations first, then the HTTP listener closes out idle
	// connections. A second signal during the drain exits immediately.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		log.Warn("second signal, aborting drain")
		cancel()
	}()
	if err := srv.Drain(ctx); err != nil {
		log.Warn("drain incomplete", "error", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Warn("http shutdown incomplete", "error", err)
	}
}
