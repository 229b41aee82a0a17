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
// -quick shrinks the simulation windows for a fast smoke run; -j bounds
// the worker pool (0 = all cores, 1 = serial; output is byte-identical
// either way because each point's seed derives purely from its identity).
// Results are cached content-addressed under -cache-dir (default
// os.UserCacheDir()/macrochip/expcache; -no-cache opts out).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"macrochip/internal/distflags"
	"macrochip/internal/expcache"
	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
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
	jobs := flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this file")
	cacheDir := flag.String("cache-dir", expcache.DefaultDir(), `experiment result cache directory ("" disables)`)
	noCache := flag.Bool("no-cache", false, "disable the experiment result cache")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	df := distflags.Register(flag.CommandLine)
	flag.Parse()

	cache, cerr := expcache.OpenOrDisable(*cacheDir, *noCache)
	if cerr != nil {
		log.Print("cache disabled: ", cerr)
	}
	df.AttachRemote(cache)
	dist, derr := df.Coordinator(*seed, *cacheDir, *noCache)
	if derr != nil {
		log.Fatal(derr)
	}
	if dist != nil {
		defer func() { log.Print(dist.Summary()) }()
		defer dist.Close()
	}
	defer func() { log.Print(cache.Summary()) }()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)

	cfg := harness.DefaultResilienceConfig()
	if *quick {
		cfg = harness.QuickResilienceConfig()
	}
	cfg.Seed = *seed
	if *load > 0 {
		cfg.Load = *load
	}
	if *mttrUS > 0 {
		cfg.MTTR = sim.FromNanoseconds(*mttrUS * 1e3)
	}
	if *nets != "" {
		for _, s := range strings.Split(*nets, ",") {
			k := networks.Kind(strings.TrimSpace(s))
			if !slices.Contains(networks.Six(), k) {
				log.Fatalf("unknown network %q (have %v)", k, networks.Six())
			}
			cfg.Networks = append(cfg.Networks, k)
		}
	}
	if *classes != "" {
		for _, s := range strings.Split(*classes, ",") {
			c, err := fault.ParseClass(strings.TrimSpace(s))
			if err != nil {
				log.Fatal(err)
			}
			cfg.Classes = append(cfg.Classes, c)
		}
	}
	if *rates != "" {
		cfg.Rates = nil
		for _, s := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				log.Fatalf("bad rate %q: %v", s, err)
			}
			cfg.Rates = append(cfg.Rates, r)
		}
	}

	points := harness.ResilienceStudyWith(harness.Runner{Workers: *jobs, Cache: cache, Dist: dist}, cfg)
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

// writeMemProfile snapshots the heap into path (no-op for ""); a GC first
// makes the profile reflect live objects, not collection timing.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print(err)
	}
}
