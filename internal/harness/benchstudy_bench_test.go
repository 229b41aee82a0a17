package harness

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/networks"
	"macrochip/internal/workload"
)

// BenchmarkBenchCell times one figure-7 cell per network: the transpose-MS
// synthetic, whose misses find three sharers 40 % of the time and always
// invalidate them, at the -quick instruction scale (0.1). It runs the
// coherence engine and the CPU model end to end, so its allocs/op is the
// study path's allocation count, as BenchmarkOpGraphReplay's is the
// inference path's.
func BenchmarkBenchCell(b *testing.B) {
	p := core.DefaultParams()
	cell, err := workload.ByName("transpose-MS", p.Grid, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range networks.Six() {
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			var misses uint64
			for i := 0; i < b.N; i++ {
				misses += RunBenchmark(cell, k, p, CellSeed(1, cell.Name, k)).Ops
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(misses)/s, "misses/sec")
			}
		})
	}
}
