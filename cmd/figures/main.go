// Command figures regenerates every table and figure of the paper's
// evaluation section (§6) from simulation:
//
//	figures -fig 6            latency vs offered load (4 panels × 5 networks)
//	figures -fig 7            speedup vs circuit-switched (11 workloads × 6 networks)
//	figures -fig 8            latency per coherence operation
//	figures -fig 9            router energy % (limited point-to-point)
//	figures -fig 10           energy-delay product normalized to point-to-point
//	figures -table 5          network optical power
//	figures -table 6          component counts
//	figures -all              everything
//
// -quick shrinks the simulation windows/quotas for a fast smoke run;
// -scale and -seed control the benchmark studies. -j bounds the worker
// pool that fans the independent simulations across cores (0, the
// default, uses every core; 1 runs serially — output is identical either
// way because each point's seed derives purely from the point identity).
// Results are cached content-addressed under -cache-dir (default
// os.UserCacheDir()/macrochip/expcache; -no-cache or -cache-dir "" opts
// out), so repeated runs replay from disk with byte-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/distflags"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/workload"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (6-10)")
	table := flag.Int("table", 0, "table number to regenerate (5 or 6)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	quick := flag.Bool("quick", false, "use short simulation windows")
	scale := flag.Float64("scale", 1.0, "workload instruction-quota scale for figures 7-10")
	seed := flag.Int64("seed", 1, "random seed")
	jobs := flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	patterns := flag.String("patterns", "", "comma-separated figure-6 patterns to run (default: all four)")
	nets := flag.String("networks", "", "comma-separated figure-6 networks to run (default: the paper's five)")
	cacheDir := flag.String("cache-dir", expcache.DefaultDir(), `experiment result cache directory ("" disables)`)
	noCache := flag.Bool("no-cache", false, "disable the experiment result cache")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	df := distflags.Register(flag.CommandLine)
	flag.Parse()
	outDir = *csvDir
	cache, err := expcache.OpenOrDisable(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures: cache disabled:", err)
	}
	df.AttachRemote(cache)
	dist, err := df.Coordinator(*seed, *cacheDir, *noCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	if dist != nil {
		defer func() { fmt.Fprintln(os.Stderr, "figures:", dist.Summary()) }()
		defer dist.Close()
	}
	runner = harness.Runner{Workers: *jobs, Cache: cache, Dist: dist}
	if *patterns != "" {
		fig6Patterns = splitList(*patterns)
	}
	for _, s := range splitList(*nets) {
		fig6Networks = append(fig6Networks, networks.Kind(s))
	}
	defer func() { fmt.Fprintln(os.Stderr, "figures:", cache.Summary()) }()

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer stop()
	}
	defer writeMemProfile(*memprofile)

	p := core.DefaultParams()
	if *all {
		runFig6(p, *quick, *seed)
		runStudyFigures(p, *quick, *scale, *seed, 7, 8, 9, 10)
		fmt.Println(harness.RenderTable5(p))
		fmt.Println(harness.RenderTable6(p))
		return
	}
	switch {
	case *fig == 6:
		runFig6(p, *quick, *seed)
	case *fig >= 7 && *fig <= 10:
		runStudyFigures(p, *quick, *scale, *seed, *fig)
	case *table == 5:
		fmt.Println(harness.RenderTable5(p))
	case *table == 6:
		fmt.Println(harness.RenderTable6(p))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function to defer.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile snapshots the heap into path (no-op for ""); a GC first
// makes the profile reflect live objects, not collection timing.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
	}
}

// outDir, when non-empty, receives CSV copies of every generated series.
var outDir string

// runner carries the -j worker-pool setting into every study.
var runner harness.Runner

// fig6Patterns / fig6Networks restrict the figure-6 grid (-patterns /
// -networks); nil means the full paper grid. Restrictions exist for the
// distributed smoke test and quick byte-identity comparisons, where one
// (pattern, network) panel is plenty.
var (
	fig6Patterns []string
	fig6Networks []networks.Kind
)

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func runFig6(p core.Params, quick bool, seed int64) {
	cfg := harness.DefaultLoadPointConfig()
	if quick {
		cfg = harness.QuickLoadPointConfig()
	}
	cfg.Params = p
	cfg.Seed = seed
	emit := func(panel harness.Figure6Panel) {
		fmt.Println(harness.RenderFigure6(panel))
		writeCSV("fig6_"+panel.Pattern+".csv", func(w io.Writer) error {
			return harness.WriteFigure6CSV(w, panel)
		})
	}
	if fig6Patterns == nil && fig6Networks == nil {
		for _, panel := range harness.Figure6With(runner, cfg) {
			emit(panel)
		}
		return
	}
	pats := fig6Patterns
	if pats == nil {
		pats = []string{"uniform", "transpose", "neighbor", "butterfly"}
	}
	for _, pat := range pats {
		panel, err := harness.Figure6PanelWith(runner, cfg, pat, fig6Networks, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		emit(panel)
	}
}

// writeCSV writes one CSV artifact into outDir (no-op when unset).
func writeCSV(name string, fn func(io.Writer) error) {
	if outDir == "" {
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(outDir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func runStudyFigures(p core.Params, quick bool, scale float64, seed int64, figs ...int) {
	s := workload.Scale(scale)
	if quick {
		s = workload.Scale(scale * 0.1)
	}
	rows := harness.FullStudyWith(runner, p, s, seed)
	writeCSV("study.csv", func(w io.Writer) error { return harness.WriteStudyCSV(w, rows) })
	for _, f := range figs {
		switch f {
		case 7:
			fmt.Println(harness.RenderFigure7(rows))
		case 8:
			fmt.Println(harness.RenderFigure8(rows))
		case 9:
			fmt.Println(harness.RenderFigure9(rows))
		case 10:
			fmt.Println(harness.RenderFigure10(rows))
		}
	}
}
