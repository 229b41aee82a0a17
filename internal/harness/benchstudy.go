package harness

import (
	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/memory"
	"macrochip/internal/networks"
	"macrochip/internal/power"
	"macrochip/internal/sim"
)

// BenchResult is one (benchmark, network) cell of the figure-7/8/9/10
// studies.
type BenchResult struct {
	cpu.Result
	Kind   networks.Kind
	Energy power.Breakdown
}

// RunBenchmark simulates one coherence-driven benchmark on one network,
// attaching the off-package memory backend named by Params.MemoryTech (if
// any).
func RunBenchmark(b cpu.Benchmark, kind networks.Kind, p core.Params, seed int64) BenchResult {
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	net := networks.MustNew(kind, eng, p, stats)
	var mem coherence.MemoryBackend
	if p.MemoryTech != "" {
		tech, err := memory.ByName(p.MemoryTech)
		if err != nil {
			panic(err)
		}
		mem = memory.NewController(eng, p.Grid.Sites(), tech, seed+1)
	}
	res := cpu.Run(b, eng, p, net, stats, seed, mem)
	return BenchResult{
		Result: res,
		Kind:   kind,
		Energy: power.Compute(kind, p, stats, res.Runtime),
	}
}

// StudyRow holds one benchmark's results across all evaluated networks.
type StudyRow struct {
	Benchmark string
	Cells     map[networks.Kind]BenchResult
}

// Speedup returns the figure-7 bar: runtime normalized to the
// circuit-switched network.
func (r StudyRow) Speedup(kind networks.Kind) float64 {
	base := r.Cells[networks.CircuitSwitched].Runtime
	own := r.Cells[kind].Runtime
	if own == 0 {
		return 0
	}
	return float64(base) / float64(own)
}

// LatencyPerOp returns the figure-8 bar.
func (r StudyRow) LatencyPerOp(kind networks.Kind) sim.Time {
	return r.Cells[kind].LatencyPerOp
}

// NormalizedEDP returns the figure-10 bar: network energy × latency per
// coherence operation, normalized to the point-to-point network.
func (r StudyRow) NormalizedEDP(kind networks.Kind) float64 {
	base := r.Cells[networks.PointToPoint]
	own := r.Cells[kind]
	den := base.Energy.EDP(base.LatencyPerOp)
	if den == 0 {
		return 0
	}
	return own.Energy.EDP(own.LatencyPerOp) / den
}

// RouterFraction returns the figure-9 bar for the limited point-to-point
// network.
func (r StudyRow) RouterFraction() float64 {
	return r.Cells[networks.LimitedPtP].Energy.RouterFraction()
}

// RunStudyWith runs every benchmark over every network kind on the Runner.
// Every (benchmark, network) cell is an independent simulation seeded by
// CellSeed, so the study's rows are identical at every worker count.
func RunStudyWith(r Runner, benches []cpu.Benchmark, kinds []networks.Kind, p core.Params, seed int64) []StudyRow {
	cells := make([]cell[BenchResult, benchCellSpec], 0, len(benches)*len(kinds))
	for _, b := range benches {
		for _, k := range kinds {
			cells = append(cells, newCell(CellBenchCell, specForBenchCell(b, k, p, CellSeed(seed, b.Name, k))))
		}
	}
	results := runCells(r, cells)
	rows := make([]StudyRow, 0, len(benches))
	i := 0
	for _, b := range benches {
		row := StudyRow{Benchmark: b.Name, Cells: map[networks.Kind]BenchResult{}}
		for _, k := range kinds {
			row.Cells[k] = results[i]
			i++
		}
		rows = append(rows, row)
	}
	return rows
}
