package harness

import (
	"path/filepath"
	"strconv"
	"testing"

	"macrochip/internal/expcache"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// benchLoadPointConfig is a small-but-representative figure-6 point: uniform
// traffic at 5% of site bandwidth, short warmup/measure windows so one
// iteration stays in the tens of milliseconds on every network (5% keeps
// even the quickly-saturating circuit-switched and token-ring designs from
// growing pathological queues, so the benchmark measures dispatch cost, not
// queue churn).
func benchLoadPointConfig(kind networks.Kind) LoadPointConfig {
	cfg := DefaultLoadPointConfig()
	cfg.Network = kind
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.05
	cfg.Warmup = 250 * sim.Nanosecond
	cfg.Measure = 1 * sim.Microsecond
	cfg.Seed = 1
	return cfg
}

// BenchmarkRunLoadPoint times one load-sweep simulation per network — the
// inner loop of every figure-6 sweep and saturation search. Run it with
// `go test -run '^$' -bench BenchmarkRunLoadPoint -benchmem
// ./internal/harness`; the committed end-to-end benchmark is perfbench.
func BenchmarkRunLoadPoint(b *testing.B) {
	for _, k := range networks.Six() {
		cfg := benchLoadPointConfig(k)
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				pt := RunLoadPoint(cfg)
				events += pt.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/sec")
			}
		})
	}
}

// BenchmarkSaturatedLoadPoint times the figure-6 path at its heaviest:
// uniform traffic at load 0.95 with the -quick windows, on three networks
// whose saturated queues hold hundreds of thousands of packets. Its
// allocs/op shows whether queued packets still cost an allocation each;
// `make bench-smoke` runs it once.
func BenchmarkSaturatedLoadPoint(b *testing.B) {
	for _, k := range []networks.Kind{networks.LimitedPtP, networks.TokenRing, networks.CircuitSwitched} {
		cfg := QuickLoadPointConfig()
		cfg.Network = k
		cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
		cfg.Load = 0.95
		cfg.Seed = PointSeed(1, k, "uniform", cfg.Load)
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunLoadPoint(cfg)
			}
		})
	}
}

// BenchmarkLoadSweep times a miniature full sweep — all six networks across
// a four-point load grid, run serially so the number measures single-run
// dispatch cost rather than scheduler luck.
func BenchmarkLoadSweep(b *testing.B) {
	loads := []float64{0.01, 0.02, 0.04, 0.05}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		for _, k := range networks.Six() {
			cfg := benchLoadPointConfig(k)
			for _, load := range loads {
				cfg.Load = load
				cfg.Seed = PointSeed(1, k, "uniform", load)
				pt := RunLoadPoint(cfg)
				events += pt.Events
			}
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkLoadSweepColdCache is BenchmarkLoadSweep through an always-cold
// result cache: every iteration opens a fresh directory, so every point pays
// the full miss path — key hashing, the probe read, JSON encoding, and the
// atomic temp-file publish — on top of its simulation. The delta against
// BenchmarkLoadSweep is the cache's whole cold-run overhead, which must stay
// within noise (≤2%) because one SHA-256 and one small JSON write amortize
// over milliseconds of event dispatch per point.
func BenchmarkLoadSweepColdCache(b *testing.B) {
	root := b.TempDir()
	loads := []float64{0.01, 0.02, 0.04, 0.05}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		c, err := expcache.Open(filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range networks.Six() {
			cfg := benchLoadPointConfig(k)
			for _, load := range loads {
				cfg.Load = load
				cfg.Seed = PointSeed(1, k, "uniform", load)
				pt := cachedLoadPoint(Runner{Workers: 1, Cache: c}, cfg)
				events += pt.Events
			}
		}
		if st := c.Stats(); st.Hits != 0 {
			b.Fatalf("cold-cache iteration hit: %+v", st)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}
