// Package server is the HTTP/JSON layer of the simulation-as-a-service
// daemon (cmd/macrochipd). It accepts experiment configs over a small REST
// API, executes them on a bounded queue backed by one shared
// harness.Runner, and serves results in the same bytes the CLIs write.
//
// The scaling story is the content-addressed result cache: every queue
// worker runs on the same Runner, whose Cache single-flights identical
// points in-process and shares finished entries on disk, so overlapping
// requests from many clients collapse into cache hits instead of redundant
// multi-minute simulations, and a config that a retained finished job
// answered is answered again from the job table without a run. Because
// each point is a pure function of (config, derived seed), a cached
// response is byte-identical to a cold one — the house determinism
// invariant, extended over HTTP.
//
// Production shape: bounded request queue (503 when full), per-client
// token-bucket rate limiting (429 + Retry-After), panic recovery, request
// body limits, per-request timeouts on the non-streaming routes,
// structured access logs, /healthz, /debug/pprof, and a graceful drain
// that finishes in-flight simulations while rejecting new work.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
)

// Config assembles a Server; zero fields take the documented defaults.
type Config struct {
	// Runner executes every experiment. Its Cache (may be nil) is the
	// shared rendezvous store that collapses duplicate requests; its Dist
	// (may be nil) is the distributed-sweep coordinator whose live counters
	// the daemon exposes at GET /v1/dist/stats. The daemon does not own or
	// drain the coordinator.
	Runner harness.Runner
	// QueueDepth bounds queued-but-not-started experiments (default 64).
	QueueDepth int
	// Workers is the number of experiments run concurrently (default 2;
	// each experiment already fans its points across the Runner's pool).
	Workers int
	// RatePerSec and Burst set the per-client token bucket for experiment
	// submissions (defaults 5/s and 10).
	RatePerSec float64
	Burst      float64
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds the non-streaming API routes (default 30 s).
	// The progress stream and pprof endpoints are exempt.
	RequestTimeout time.Duration
	// pollInterval is the NDJSON progress heartbeat (default 1 s; tests
	// shorten it).
	pollInterval time.Duration
	// Log receives structured access and lifecycle logs (default
	// slog.Default()).
	Log *slog.Logger
	// Now is the clock, overridable in tests (default time.Now).
	Now func() time.Time
}

// Server is one daemon instance: router, queue, and limiter.
type Server struct {
	cfg     Config
	log     *slog.Logger
	queue   *Queue
	limiter *Limiter
	handler http.Handler
	started time.Time

	// entriesServed / entriesStored / entriesConflicted count the cache
	// rendezvous traffic: entries handed to remote readers (GET hits),
	// entries published by remote writers (successful PUTs) and PUTs
	// refused because the key holds different bytes (409s).
	entriesServed     atomic.Uint64
	entriesStored     atomic.Uint64
	entriesConflicted atomic.Uint64
}

// New builds a Server and starts its queue workers.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RatePerSec <= 0 {
		cfg.RatePerSec = 5
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 10
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.pollInterval <= 0 {
		cfg.pollInterval = time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Log,
		queue:   newQueue(cfg.Runner, cfg.QueueDepth, cfg.Workers, cfg.Log, cfg.Now),
		limiter: newLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now),
		started: cfg.Now(),
	}

	// Non-streaming API routes live behind the timeout wrapper; the NDJSON
	// progress stream and pprof must outlive any per-request deadline.
	api := http.NewServeMux()
	api.HandleFunc("GET /healthz", s.handleHealthz)
	api.HandleFunc("POST /v1/experiments", s.handleSubmit)
	api.HandleFunc("GET /v1/experiments", s.handleList)
	api.HandleFunc("GET /v1/experiments/{id}", s.handleStatus)
	api.HandleFunc("GET /v1/experiments/{id}/result", s.handleResult)
	api.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	api.HandleFunc("GET /v1/cache/entries", s.handleCacheEntryBatch)
	api.HandleFunc("GET /v1/cache/entries/{key}", s.handleCacheEntryGet)
	api.HandleFunc("PUT /v1/cache/entries/{key}", s.handleCacheEntryPut)
	api.HandleFunc("GET /v1/dist/stats", s.handleDistStats)

	mux := http.NewServeMux()
	mux.Handle("/", http.TimeoutHandler(api, cfg.RequestTimeout, "request timed out"))
	mux.HandleFunc("GET /v1/experiments/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	s.handler = accessLog(s.log, cfg.Now,
		recoverPanics(s.log,
			limitBody(cfg.MaxBodyBytes, mux)))
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Cache returns the shared result cache handle (nil when disabled).
func (s *Server) Cache() *expcache.Cache { return s.cfg.Runner.Cache }

// Drain gracefully shuts the experiment queue down: new submissions are
// rejected with 503, in-flight simulations finish (bounded by ctx), and
// still-queued jobs are aborted. The HTTP listener itself is the caller's
// to close (http.Server.Shutdown), after Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.log.Info("draining", "reason", "shutdown requested")
	return s.queue.Drain(ctx)
}
