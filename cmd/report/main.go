// Command report runs the complete evaluation — every paper figure and
// table plus the repository's extension studies — and writes a single
// self-contained Markdown report.
//
//	report -o REPORT.md [-scale 0.5] [-quick] [-j N]
//
// A full run takes a few minutes; -quick shrinks every simulation for a
// smoke-test report. -j bounds the worker pool for the independent
// simulations (0 = every core, 1 = serial; the report is byte-identical
// either way for a given seed). Simulation results are cached
// content-addressed under -cache-dir (default
// os.UserCacheDir()/macrochip/expcache; -no-cache opts out), so a rerun
// with the same seed and scale rebuilds the report from disk.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"macrochip"
	"macrochip/internal/core"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/sim"
	"macrochip/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	out := flag.String("o", "REPORT.md", "output file")
	scale := flag.Float64("scale", 0.5, "workload scale for the benchmark studies")
	quick := flag.Bool("quick", false, "shrink all simulations for a fast smoke report")
	seed := flag.Int64("seed", 1, "random seed")
	jobs := flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := flag.String("cache-dir", expcache.DefaultDir(), `experiment result cache directory ("" disables)`)
	noCache := flag.Bool("no-cache", false, "disable the experiment result cache")
	flag.Parse()
	cache, err := expcache.OpenOrDisable(*cacheDir, *noCache)
	if err != nil {
		log.Print("cache disabled: ", err)
	}
	runner := harness.Runner{Workers: *jobs, Cache: cache}
	defer func() { log.Print(cache.Summary()) }()

	var b strings.Builder
	p := core.DefaultParams()
	start := time.Now()

	fmt.Fprintf(&b, "# Macrochip evaluation report\n\n")
	fmt.Fprintf(&b, "Generated by `cmd/report` (seed %d, scale %.2f).\n\n", *seed, *scale)
	fmt.Fprintf(&b, "Configuration: %v\n\n", macrochip.NewSystem(macrochip.WithSeed(*seed)))

	// Figure 6.
	log.Print("figure 6 (four load sweeps)...")
	cfg := harness.DefaultLoadPointConfig()
	cfg.Params = p
	cfg.Seed = *seed
	if *quick {
		cfg.Warmup = 300 * sim.Nanosecond
		cfg.Measure = 900 * sim.Nanosecond
	}
	fmt.Fprintf(&b, "## Figure 6 — latency vs offered load\n\n```\n")
	for _, panel := range harness.Figure6With(runner, cfg) {
		b.WriteString(harness.RenderFigure6(panel))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "```\n\n")

	// Figures 7–10 from one study.
	log.Print("figures 7-10 (benchmark study)...")
	s := workload.Scale(*scale)
	if *quick {
		s = workload.Scale(*scale * 0.1)
	}
	rows := harness.FullStudyWith(runner, p, s, *seed)
	for _, render := range []func([]harness.StudyRow) string{
		harness.RenderFigure7, harness.RenderFigure8, harness.RenderFigure9, harness.RenderFigure10,
	} {
		fmt.Fprintf(&b, "```\n%s```\n\n", render(rows))
	}

	// Tables.
	fmt.Fprintf(&b, "```\n%s```\n\n", harness.RenderTable5(p))
	fmt.Fprintf(&b, "```\n%s```\n\n", harness.RenderTable6(p))

	// Extensions.
	log.Print("extension studies...")
	sys := macrochip.NewSystem(macrochip.WithSeed(*seed))

	fmt.Fprintf(&b, "## Extensions\n\n### Scalability (§6.4 quantified)\n\n```\n")
	b.WriteString(harness.RenderScaling(harness.ScalingStudyWith(runner, []int{4, 8, 16})))
	fmt.Fprintf(&b, "```\n\n### Message passing (future work, §8)\n\n```\n")
	mpIters := 4
	fmt.Fprintf(&b, "ring exchange, mean ns/iteration\n%10s %22s %22s\n", "msg size",
		"circuit-switched", "point-to-point")
	for _, size := range []int{64, 4096, 65536} {
		cs, err := sys.RunMessagePassing(macrochip.CircuitSwitched, "ring", size, 0, mpIters)
		ck(err)
		pp, err := sys.RunMessagePassing(macrochip.PointToPoint, "ring", size, 0, mpIters)
		ck(err)
		fmt.Fprintf(&b, "%9dB %20.1f %22.1f\n", size, cs.ExchangeNS, pp.ExchangeNS)
	}
	fmt.Fprintf(&b, "```\n\n### Memory technologies (future work, §5/§8)\n\n```\n")
	for _, tech := range []string{"on-package", "fiber-stacked", "fiber-dram", "fiber-scm"} {
		msys := macrochip.NewSystem(macrochip.WithSeed(*seed), macrochip.WithMemory(tech))
		r, err := msys.RunWorkload(macrochip.PointToPoint, "blackscholes", *scale*0.5)
		ck(err)
		fmt.Fprintf(&b, "%-14s %8.1f ns/coherence-op\n", tech, r.LatencyPerOpNS)
	}
	fmt.Fprintf(&b, "```\n\n### Link-margin yield (10%% component tolerance)\n\n```\n")
	for _, n := range macrochip.AllNetworks() {
		r := sys.LinkYield(n, 20000)
		fmt.Fprintf(&b, "%-24s yield %6.2f%%  mean %5.2f dB  p5 %5.2f dB  min %6.2f dB\n",
			n, r.Yield*100, r.MeanMarginDB, r.P5MarginDB, r.MinMarginDB)
	}
	fmt.Fprintf(&b, "```\n\nReport generated in %v.\n", time.Since(start).Round(time.Second))

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

func ck(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
