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
// -scale and -seed control the benchmark studies. The -j, cache, fleet
// and profile flags are the ones every command shares (internal/runflags);
// output is byte-identical at any -j, cached or not.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"macrochip/internal/core"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/runflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 0, "figure number to regenerate (6-10)")
	table := flag.Int("table", 0, "table number to regenerate (5 or 6)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	quick := flag.Bool("quick", false, "use short simulation windows")
	scale := flag.Float64("scale", 1.0, "workload instruction-quota scale for figures 7-10")
	seed := flag.Int64("seed", 1, "random seed")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	patterns := flag.String("patterns", "", "comma-separated figure-6 patterns to run (default: all four)")
	nets := flag.String("networks", "", "comma-separated figure-6 networks to run (default: the paper's five)")
	rf := runflags.Register(flag.CommandLine, "figures", runflags.Fleet|runflags.Profile)
	flag.Parse()
	outDir = *csvDir
	fig6Patterns = runflags.Split(*patterns)
	var err error
	if fig6Networks, err = runflags.List(*nets, runflags.Network); err != nil {
		log.Fatal(err)
	}
	var finish func()
	if runner, finish, err = rf.Start(*seed, nil); err != nil {
		log.Fatal(err)
	}
	defer finish()

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

// outDir, when non-empty, receives CSV copies of every generated series.
var outDir string

// runner carries the -j worker pool, the cache and the fleet into every
// study.
var runner harness.Runner

// fig6Patterns / fig6Networks restrict the figure-6 grid (-patterns /
// -networks); nil means the full paper grid. Restrictions exist for the
// distributed smoke test and quick byte-identity comparisons, where one
// (pattern, network) panel is plenty.
var (
	fig6Patterns []string
	fig6Networks []networks.Kind
)

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
			log.Fatal(err)
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
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(outDir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
}

func runStudyFigures(p core.Params, quick bool, scale float64, seed int64, figs ...int) {
	rows := harness.FullStudyWith(runner, p, harness.StudyScale(scale, quick), seed)
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
