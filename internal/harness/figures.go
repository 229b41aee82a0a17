package harness

import (
	"fmt"
	"sort"
	"strings"

	"macrochip/internal/complexity"
	"macrochip/internal/core"
	"macrochip/internal/networks"
	"macrochip/internal/power"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// Figure6Loads returns the offered-load grids (fractions of the 320 GB/s
// site bandwidth) used for each figure-6 panel, matching the paper's axis
// ranges: uniform to 100%, transpose and butterfly to 6%, nearest-neighbor
// to 25%.
func Figure6Loads(pattern string) []float64 {
	switch pattern {
	case "uniform":
		return []float64{0.02, 0.05, 0.075, 0.10, 0.20, 0.30, 0.40, 0.47, 0.55, 0.65, 0.75, 0.85, 0.95}
	case "neighbor":
		return []float64{0.01, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20, 0.25}
	default: // transpose, butterfly
		return []float64{0.0025, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05, 0.06}
	}
}

// SweepSeries is one network's latency-vs-load curve.
type SweepSeries struct {
	Network networks.Kind
	Points  []LoadPoint
}

// Figure6Panel is one pattern's panel: five series.
type Figure6Panel struct {
	Pattern string
	Series  []SweepSeries
}

// Figure6With regenerates the latency-vs-offered-load study (paper
// figure 6) on the Runner: four traffic patterns × five networks × a load
// grid. Pass zero values to use DefaultLoadPointConfig settings. Every
// (pattern, network, load) point is an independent simulation; the full
// grid is flattened into one job list so the pool stays busy across panel
// boundaries, and each point's seed comes from PointSeed, so the rendered
// tables are byte-identical at every worker count.
func Figure6With(r Runner, base LoadPointConfig) []Figure6Panel {
	if base.PacketBytes == 0 {
		base = DefaultLoadPointConfig()
	}
	return figure6Panels(r, base, traffic.All(base.Params.Grid), networks.Five(), Figure6Loads)
}

// Figure6PanelWith runs one pattern's figure-6 panel on an explicit Runner,
// optionally restricted to a subset of networks and offered loads (nil
// selects the full figure-6 grid: networks.Five() and Figure6Loads). Every
// point's seed derives from PointSeed exactly as in Figure6With, so a panel
// served here — e.g. by the experiment daemon — is byte-identical to the
// same panel inside a full Figure6With run at any worker count.
func Figure6PanelWith(r Runner, base LoadPointConfig, pattern string, kinds []networks.Kind, loads []float64) (Figure6Panel, error) {
	if base.PacketBytes == 0 {
		base = DefaultLoadPointConfig()
	}
	pat, err := traffic.ByName(pattern, base.Params.Grid)
	if err != nil {
		return Figure6Panel{}, err
	}
	if kinds == nil {
		kinds = networks.Five()
	}
	if loads == nil {
		loads = Figure6Loads(pat.Name())
	}
	return figure6Panels(r, base, []traffic.Pattern{pat}, kinds, func(string) []float64 { return loads })[0], nil
}

// figure6Panels runs the (pattern, network, load) grid as one flat list of
// load-point cells and slots the results back into one panel per pattern.
func figure6Panels(r Runner, base LoadPointConfig, pats []traffic.Pattern, kinds []networks.Kind, loadsFor func(pattern string) []float64) []Figure6Panel {
	cells := []cell[LoadPoint]{}
	for _, pat := range pats {
		for _, k := range kinds {
			for _, load := range loadsFor(pat.Name()) {
				cfg := base
				cfg.Network = k
				cfg.Pattern = pat
				cfg.Load = load
				cfg.Seed = PointSeed(base.Seed, k, pat.Name(), load)
				cells = append(cells, loadPointCell(cfg))
			}
		}
	}
	points := runCells(r, cells)
	panels := make([]Figure6Panel, 0, len(pats))
	i := 0
	for _, pat := range pats {
		panel := Figure6Panel{Pattern: pat.Name()}
		for _, k := range kinds {
			s := SweepSeries{Network: k}
			for range loadsFor(pat.Name()) {
				s.Points = append(s.Points, points[i])
				i++
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	return panels
}

// RenderFigure6 renders one panel as an aligned text table (loads as rows,
// networks as columns, mean latency in ns; saturated points marked "*").
func RenderFigure6(panel Figure6Panel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %s (64 B packets; latency in ns vs offered load, %% of 320 B/ns per site)\n", panel.Pattern)
	if len(panel.Series) == 0 {
		b.WriteString("(no series)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%8s", "load%")
	for _, s := range panel.Series {
		fmt.Fprintf(&b, " %18s", s.Network)
	}
	b.WriteString("\n")
	for i := range panel.Series[0].Points {
		fmt.Fprintf(&b, "%8.2f", panel.Series[0].Points[i].Load*100)
		for _, s := range panel.Series {
			pt := s.Points[i]
			mark := " "
			if pt.Saturated {
				mark = "*"
			}
			fmt.Fprintf(&b, " %17.1f%s", pt.MeanLatency.Nanoseconds(), mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FullStudyWith runs the eleven workloads over all six network designs —
// the shared substrate of figures 7, 8, 9 and 10 — on the Runner.
func FullStudyWith(r Runner, p core.Params, scale workload.Scale, seed int64) []StudyRow {
	return RunStudyWith(r, workload.All(p.Grid, scale), networks.Six(), p, seed)
}

// RenderFigure7 renders the speedup chart (normalized to circuit-switched).
func RenderFigure7(rows []StudyRow) string {
	return renderStudyTable(rows, "Figure 7 — speedup vs circuit-switched",
		func(r StudyRow, k networks.Kind) string { return fmt.Sprintf("%.2f", r.Speedup(k)) })
}

// RenderFigure8 renders latency per coherence operation in ns.
func RenderFigure8(rows []StudyRow) string {
	return renderStudyTable(rows, "Figure 8 — latency per coherence operation (ns)",
		func(r StudyRow, k networks.Kind) string {
			return fmt.Sprintf("%.0f", r.LatencyPerOp(k).Nanoseconds())
		})
}

// RenderFigure9 renders the router-energy percentage of the limited
// point-to-point network per workload.
func RenderFigure9(rows []StudyRow) string {
	var b strings.Builder
	b.WriteString("Figure 9 — router energy in limited point-to-point network (% of total energy)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6.1f%%\n", r.Benchmark, r.RouterFraction()*100)
	}
	return b.String()
}

// RenderFigure10 renders the energy-delay product normalized to the
// point-to-point network (the paper plots this on a log axis).
func RenderFigure10(rows []StudyRow) string {
	return renderStudyTable(rows, "Figure 10 — energy-delay product normalized to point-to-point",
		func(r StudyRow, k networks.Kind) string { return fmt.Sprintf("%.1f", r.NormalizedEDP(k)) })
}

func renderStudyTable(rows []StudyRow, title string, cell func(StudyRow, networks.Kind) string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, k := range networks.Six() {
		fmt.Fprintf(&b, " %18s", k)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Benchmark)
		for _, k := range networks.Six() {
			fmt.Fprintf(&b, " %18s", cell(r, k))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTable5 renders the optical power table.
func RenderTable5(p core.Params) string {
	var b strings.Builder
	b.WriteString("Table 5 — network optical power\n")
	fmt.Fprintf(&b, "%-24s %8s %12s\n", "network", "loss ×", "laser (W)")
	for _, r := range power.Table5(p) {
		fmt.Fprintf(&b, "%-24s %7.1f× %10.1f W\n", r.Network, r.LossFactor, r.LaserWatts)
	}
	return b.String()
}

// RenderTable6 renders the component-count table.
func RenderTable6(p core.Params) string {
	var b strings.Builder
	b.WriteString("Table 6 — total optical component counts\n")
	fmt.Fprintf(&b, "%-24s %9s %8s %8s %9s  %s\n", "network", "Tx", "Rx", "Wgs", "Switches", "switch kind")
	for _, r := range complexity.Table6(p) {
		fmt.Fprintf(&b, "%-24s %9d %8d %8d %9d  %s\n",
			r.Network, r.Tx, r.Rx, r.Waveguides, r.Switches, r.SwitchKind)
	}
	return b.String()
}

// SaturationSummary extracts, for each network, the highest unsaturated
// load from a figure-6 panel — the paper's "sustains X% of peak" numbers.
func SaturationSummary(panel Figure6Panel) map[networks.Kind]float64 {
	out := map[networks.Kind]float64{}
	for _, s := range panel.Series {
		best := 0.0
		for _, pt := range s.Points {
			if !pt.Saturated && pt.Load > best {
				best = pt.Load
			}
		}
		out[s.Network] = best
	}
	return out
}

// MeanRuntime is a convenience for sorting/inspection in tests.
func MeanRuntime(rows []StudyRow, k networks.Kind) sim.Time {
	if len(rows) == 0 {
		return 0
	}
	var sum sim.Time
	for _, r := range rows {
		sum += r.Cells[k].Runtime
	}
	return sum / sim.Time(len(rows))
}

// SortedBenchmarks returns the row names in order (test helper).
func SortedBenchmarks(rows []StudyRow) []string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Benchmark
	}
	sort.Strings(names)
	return names
}
