// Command resilience runs the fault-injection study: every selected
// network simulated under a seeded schedule of photonic component failures
// (dark lasers, detuned rings, stuck switches), with end-to-end retry
// recovering lost packets. It reports degraded throughput, availability,
// and recovery statistics per (network, fault class, fault rate) point.
//
//	resilience                                   full sweep, all six networks
//	resilience -networks point-to-point          one network
//	resilience -classes dark-laser,stuck-switch  selected fault classes
//	resilience -rates 0,10,50 -load 0.05         custom rate grid
//	resilience -csv resilience.csv               also write the CSV
//
// Each rate must lie in [0, harness.MaxFaultRate] per site per ms, -load in
// [0, 1] and -mttr must not be negative, the daemon's bounds; a value
// outside them (NaN included) exits 1 before anything is simulated. A zero
// -load or -mttr selects the default.
// -quick shrinks the simulation windows for a fast smoke run. The -j,
// cache, fleet and profile flags are the ones every command shares
// (internal/runflags); output is byte-identical at any -j, cached or not.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"

	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/runflags"
	"macrochip/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resilience: ")
	nets := flag.String("networks", "", "comma-separated network kinds (default: all six)")
	classes := flag.String("classes", "", "comma-separated fault classes: dark-laser,ring-detune,stuck-switch (default: all)")
	rates := flag.String("rates", "", "comma-separated fault rates per site per simulated ms (default: 0,5,20,80)")
	load := flag.Float64("load", 0, "offered load per site as a fraction of 320 GB/s (default 0.05)")
	mttrUS := flag.Float64("mttr", 0, "mean time to repair in simulated µs (default 2)")
	quick := flag.Bool("quick", false, "use short simulation windows")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this file")
	rf := runflags.Register(flag.CommandLine, "resilience", runflags.Fleet|runflags.Profile)
	flag.Parse()

	cfg := harness.DefaultResilienceConfig()
	if *quick {
		cfg = harness.QuickResilienceConfig()
	}
	cfg.Seed = *seed
	if !(*load >= 0 && *load <= 1) {
		log.Fatalf("load %g outside [0, 1]", *load)
	}
	if *mttrUS < 0 {
		log.Fatal("negative MTTR")
	}
	if math.IsNaN(*mttrUS) {
		log.Fatal("MTTR is NaN")
	}
	if *load > 0 {
		cfg.Load = *load
	}
	if *mttrUS > 0 {
		cfg.MTTR = sim.FromNanoseconds(*mttrUS * 1e3)
	}
	var err error
	if cfg.Networks, err = runflags.List(*nets, runflags.Network); err != nil {
		log.Fatal(err)
	}
	if cfg.Classes, err = runflags.List(*classes, fault.ParseClass); err != nil {
		log.Fatal(err)
	}
	r, err := runflags.List(*rates, parseRate)
	if err != nil {
		log.Fatal(err)
	}
	if r != nil {
		cfg.Rates = r
	}

	runner, finish, err := rf.Start(*seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer finish()
	points := harness.ResilienceStudyWith(runner, cfg)
	fmt.Print(harness.RenderResilience(points))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := harness.WriteResilienceCSV(f, points); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// parseRate parses one -rates item, refusing a rate outside [0,
// harness.MaxFaultRate] (NaN included).
func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(r >= 0 && r <= harness.MaxFaultRate) {
		return 0, fmt.Errorf("fault rate %g outside [0, %d] per site per ms", r, harness.MaxFaultRate)
	}
	return r, nil
}
