// Command macrosim runs a single macrochip simulation point and prints its
// metrics — the smallest unit of the paper's evaluation.
//
// Raw-packet mode (figure-6 style):
//
//	macrosim -network point-to-point -pattern uniform -load 0.5
//
// Coherence-workload mode (figure-7/8 style):
//
//	macrosim -network two-phase -workload swaptions -scale 0.5
//
// Networks: token-ring, circuit-switched, point-to-point,
// limited-point-to-point, two-phase, two-phase-alt.
// Patterns: uniform, transpose, neighbor, butterfly.
// Workloads: radix, barnes, blackscholes, densities, forces, swaptions,
// all-to-all, transpose, transpose-MS, neighbor, butterfly.
//
// Worker mode (distributed sweeps):
//
//	macrosim -worker                      # serve cells over stdin/stdout
//	macrosim -connect host:9099           # serve cells over TCP
//
// In worker mode macrosim executes experiment cells for a coordinator
// (cmd/figures -dist-workers/-dist-addr et al.) and prints nothing on
// stdout except protocol; logs go to stderr. SIGTERM drains gracefully:
// the in-flight cell finishes and is answered before the worker exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"macrochip"
	"macrochip/internal/distrib"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/metrics"
	"macrochip/internal/networks"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("macrosim: ")
	network := flag.String("network", "point-to-point", "network architecture")
	pattern := flag.String("pattern", "", "synthetic pattern for raw-packet mode")
	load := flag.Float64("load", 0.1, "offered load (fraction of 320 GB/s per site)")
	wl := flag.String("workload", "", "coherence workload for benchmark mode: "+strings.Join(workload.Names(), ","))
	scale := flag.Float64("scale", 1.0, "workload instruction-quota scale")
	seed := flag.Int64("seed", 1, "random seed")
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON of the run (raw-packet mode; open in Perfetto)")
	metricsPath := flag.String("metrics-csv", "", "write sampled metric time series as CSV (raw-packet mode)")
	dumpConfig := flag.Bool("dumpconfig", false, "print the full parameter block as JSON and exit")
	worker := flag.Bool("worker", false, "serve distributed-sweep cells over stdin/stdout (spawned by a coordinator)")
	connect := flag.String("connect", "", "serve distributed-sweep cells over TCP to the coordinator at host:port")
	cacheDir := flag.String("cache-dir", expcache.DefaultDir(), "result cache directory (worker mode)")
	noCache := flag.Bool("no-cache", false, "disable the result cache (worker mode)")
	cacheURL := flag.String("cache-url", "", "rendezvous daemon base URL for the shared cache tier, e.g. http://host:8080 (worker mode)")
	distDepth := flag.Int("dist-depth", distrib.DefaultCredits, "cells the coordinator may queue at this worker, which simulates one at a time (worker mode; 1 = stop-and-wait)")
	flag.Parse()

	// Worker mode must come before anything prints: in -worker mode stdout
	// carries the wire protocol, and a stray banner would be a framing
	// violation the coordinator tears the session down for.
	if *worker || *connect != "" {
		os.Exit(runWorker(*connect, *cacheDir, *noCache, *cacheURL, *distDepth))
	}

	sys := macrochip.NewSystem(macrochip.WithSeed(*seed))
	if *dumpConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sys.Params()); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println(sys)

	switch {
	case *wl != "":
		r, err := sys.RunWorkload(macrochip.Network(*network), *wl, *scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("workload %-14s network %s\n", r.Workload, r.Network)
		fmt.Printf("  runtime           %12.1f ns\n", r.RuntimeNS)
		fmt.Printf("  coherence ops     %12d\n", r.Ops)
		fmt.Printf("  latency per op    %12.1f ns\n", r.LatencyPerOpNS)
		fmt.Printf("  network energy    %12.4g J\n", r.NetworkEnergyJ)
		fmt.Printf("  router energy     %12.2f %% of total\n", r.RouterEnergyFraction*100)
		fmt.Printf("  EDP               %12.4g J·s\n", r.EDP)
	case *pattern != "":
		if err := runLoadPoint(sys, *network, *pattern, *load, *seed, *tracePath, *metricsPath); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("pass -pattern for raw-packet mode or -workload for benchmark mode")
	}
}

// runLoadPoint is raw-packet mode: one figure-6 load point, printed. The
// observability layer is attached only when a -metrics-csv or -trace path
// is given: a metrics registry sampled by the periodic probe (written as
// CSV) and/or a Chrome-trace tracer (written as JSON for Perfetto).
// Sampling is read-only, so the printed metrics match an unobserved run
// exactly.
func runLoadPoint(sys *macrochip.System, network, pattern string, load float64, seed int64, tracePath, metricsPath string) error {
	pat, err := traffic.ByName(pattern, sys.Params().Grid)
	if err != nil {
		return err
	}
	cfg := harness.DefaultLoadPointConfig()
	cfg.Params = sys.Params()
	cfg.Network = networks.Kind(network)
	cfg.Pattern = pat
	cfg.Load = load
	cfg.Seed = seed
	if metricsPath != "" {
		cfg.Obs.Reg = metrics.NewRegistry()
	}
	if tracePath != "" {
		cfg.Obs.Trace = metrics.NewTracer()
	}
	pt := harness.RunLoadPoint(cfg)
	if metricsPath != "" {
		if err := writeFile(metricsPath, func(w io.Writer) error {
			return harness.WriteMetricsCSV(w, cfg.Obs.Reg)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d instruments)\n", metricsPath, cfg.Obs.Reg.Len())
	}
	if tracePath != "" {
		if err := writeFile(tracePath, cfg.Obs.Trace.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", tracePath, cfg.Obs.Trace.Events())
	}
	fmt.Printf("pattern %-10s network %s  load %.1f%%\n", pattern, network, load*100)
	fmt.Printf("  mean latency      %12.1f ns\n", pt.MeanLatency.Nanoseconds())
	fmt.Printf("  max latency       %12.1f ns\n", pt.MaxLatency.Nanoseconds())
	fmt.Printf("  accepted          %12.1f GB/s (offered %.1f GB/s)\n", pt.ThroughputGBs, pt.OfferedGBs)
	fmt.Printf("  saturated         %12v\n", pt.Saturated)
	fmt.Printf("  in flight         %12d\n", pt.InFlight)
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
