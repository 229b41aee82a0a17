// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each BenchmarkFigureN/BenchmarkTableN runs the corresponding
// experiment and reports its headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results end to end. The Ablation benches probe the
// design choices called out in DESIGN.md §5.
package macrochip_test

import (
	"fmt"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/photonics"
	"macrochip/internal/power"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// benchSweepConfig returns moderately sized figure-6 windows so a full
// sweep stays in benchmark-friendly time while preserving the saturation
// points.
func benchSweepConfig() harness.LoadPointConfig {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Warmup = 500 * sim.Nanosecond
	cfg.Measure = 1500 * sim.Nanosecond
	return cfg
}

// sweepPattern runs one figure-6 panel and returns each network's highest
// unsaturated load.
func sweepPattern(b *testing.B, pattern traffic.Pattern) map[networks.Kind]float64 {
	b.Helper()
	cfg := benchSweepConfig()
	panel := harness.Figure6Panel{Pattern: pattern.Name()}
	for _, k := range networks.Five() {
		s := harness.SweepSeries{Network: k}
		for _, load := range harness.Figure6Loads(pattern.Name()) {
			c := cfg
			c.Network = k
			c.Pattern = pattern
			c.Load = load
			s.Points = append(s.Points, harness.RunLoadPoint(c))
		}
		panel.Series = append(panel.Series, s)
	}
	return harness.SaturationSummary(panel)
}

func BenchmarkFigure6Uniform(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		sat := sweepPattern(b, traffic.Uniform{Grid: p.Grid})
		b.ReportMetric(sat[networks.PointToPoint]*100, "ptp-sat-%")
		b.ReportMetric(sat[networks.TokenRing]*100, "token-sat-%")
		b.ReportMetric(sat[networks.LimitedPtP]*100, "limited-sat-%")
		b.ReportMetric(sat[networks.TwoPhase]*100, "twophase-sat-%")
	}
}

func BenchmarkFigure6Transpose(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		sat := sweepPattern(b, traffic.Transpose{Grid: p.Grid})
		b.ReportMetric(sat[networks.PointToPoint]*100, "ptp-sat-%")
		b.ReportMetric(sat[networks.LimitedPtP]*100, "limited-sat-%")
	}
}

func BenchmarkFigure6Neighbor(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		sat := sweepPattern(b, traffic.Neighbor{Grid: p.Grid})
		b.ReportMetric(sat[networks.LimitedPtP]*100, "limited-sat-%")
		b.ReportMetric(sat[networks.PointToPoint]*100, "ptp-sat-%")
	}
}

func BenchmarkFigure6Butterfly(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		sat := sweepPattern(b, traffic.Butterfly{Grid: p.Grid})
		b.ReportMetric(sat[networks.LimitedPtP]*100, "limited-sat-%")
		b.ReportMetric(sat[networks.PointToPoint]*100, "ptp-sat-%")
	}
}

// benchStudy runs the shared figure-7/8/9/10 study at a benchmark-friendly
// scale.
func benchStudy() []harness.StudyRow {
	p := core.DefaultParams()
	return harness.FullStudyWith(harness.Runner{}, p, 0.25, 1)
}

func BenchmarkFigure7Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchStudy()
		var maxSp float64
		for _, r := range rows {
			if sp := r.Speedup(networks.PointToPoint); sp > maxSp {
				maxSp = sp
			}
		}
		b.ReportMetric(maxSp, "max-ptp-speedup")
		// Swaptions is the paper's headline benchmark.
		for _, r := range rows {
			if r.Benchmark == "swaptions" {
				b.ReportMetric(r.Speedup(networks.PointToPoint), "swaptions-ptp")
				b.ReportMetric(r.Speedup(networks.TokenRing), "swaptions-token")
			}
		}
	}
}

func BenchmarkFigure8LatencyPerOp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchStudy()
		var maxApp, maxSyn float64
		for _, r := range rows {
			l := r.LatencyPerOp(networks.PointToPoint).Nanoseconds()
			switch r.Benchmark {
			case "all-to-all", "transpose", "transpose-MS", "neighbor", "butterfly":
				if l > maxSyn {
					maxSyn = l
				}
			default:
				if l > maxApp {
					maxApp = l
				}
			}
		}
		b.ReportMetric(maxApp, "ptp-max-app-ns")
		b.ReportMetric(maxSyn, "ptp-max-syn-ns")
	}
}

func BenchmarkFigure9RouterEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchStudy()
		var maxFrac float64
		for _, r := range rows {
			if f := r.RouterFraction(); f > maxFrac {
				maxFrac = f
			}
		}
		b.ReportMetric(maxFrac*100, "max-router-%")
	}
}

func BenchmarkFigure10EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchStudy()
		var maxTok, maxCS float64
		for _, r := range rows {
			if e := r.NormalizedEDP(networks.TokenRing); e > maxTok {
				maxTok = e
			}
			if e := r.NormalizedEDP(networks.CircuitSwitched); e > maxCS {
				maxCS = e
			}
		}
		b.ReportMetric(maxTok, "max-token-edp-x")
		b.ReportMetric(maxCS, "max-circuit-edp-x")
	}
}

func BenchmarkTable5Power(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		rows := power.Table5(p)
		for _, r := range rows {
			if r.Network == string(networks.PointToPoint) {
				b.ReportMetric(r.LaserWatts, "ptp-laser-W")
			}
			if r.Network == string(networks.TokenRing) {
				b.ReportMetric(r.LaserWatts, "token-laser-W")
			}
		}
	}
}

func BenchmarkTable6Complexity(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		s := harness.RenderTable6(p)
		if len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- Ablation benches (DESIGN.md §5) ----

// BenchmarkAblationPtPWidth varies the point-to-point channel width: wider
// channels lift the one-to-one (transpose) ceiling proportionally.
func BenchmarkAblationPtPWidth(b *testing.B) {
	for _, lambdas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("wavelengths=%d", lambdas), func(b *testing.B) {
			p := core.DefaultParams()
			p.PtPWavelengthsPerChannel = lambdas
			for i := 0; i < b.N; i++ {
				cfg := benchSweepConfig()
				cfg.Params = p
				cfg.Network = networks.PointToPoint
				cfg.Pattern = traffic.Transpose{Grid: p.Grid}
				best := 0.0
				for _, load := range harness.Figure6Loads("transpose") {
					cfg.Load = load
					if pt := harness.RunLoadPoint(cfg); !pt.Saturated && load > best {
						best = load
					}
				}
				b.ReportMetric(best*100, "transpose-sat-%")
			}
		})
	}
}

// BenchmarkAblationSwitchTrees varies the two-phase switch-tree count on
// the all-to-all workload — the base-vs-ALT design axis.
func BenchmarkAblationSwitchTrees(b *testing.B) {
	for _, trees := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			p := core.DefaultParams()
			p.TwoPhaseTreesPerColumn = trees
			bench, err := workload.ByName("all-to-all", p.Grid, 0.25)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r := harness.RunBenchmark(bench, networks.TwoPhase, p, 1)
				b.ReportMetric(r.Runtime.Nanoseconds(), "runtime-ns")
			}
		})
	}
}

// BenchmarkAblationTokenWDM evaluates the token-ring WDM density trade-off:
// pass-by ring loss and the implied laser power (paper §4.4).
func BenchmarkAblationTokenWDM(b *testing.B) {
	c := photonics.Default()
	for _, wdm := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("wdm=%d", wdm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := photonics.TokenRingLoss(c, 64, wdm)
				b.ReportMetric(float64(l.ExtraDB), "ring-loss-dB")
			}
		})
	}
}

// BenchmarkAblationSetupBW varies the circuit-switched control-network
// bandwidth: faster setup lifts the network's tiny sustained throughput.
func BenchmarkAblationSetupBW(b *testing.B) {
	for _, gbs := range []float64{2.5, 5, 10} {
		b.Run(fmt.Sprintf("ctrl=%.1fGBs", gbs), func(b *testing.B) {
			p := core.DefaultParams()
			p.CircuitCtrlGBs = gbs
			for i := 0; i < b.N; i++ {
				cfg := benchSweepConfig()
				cfg.Params = p
				cfg.Network = networks.CircuitSwitched
				cfg.Pattern = traffic.Uniform{Grid: p.Grid}
				cfg.Load = 0.04
				pt := harness.RunLoadPoint(cfg)
				b.ReportMetric(pt.ThroughputGBs, "accepted-GBs")
			}
		})
	}
}

// BenchmarkAblationMSHR probes coherence-concurrency sensitivity on the
// paper's heaviest kernel.
func BenchmarkAblationMSHR(b *testing.B) {
	for _, mshrs := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("mshrs=%d", mshrs), func(b *testing.B) {
			p := core.DefaultParams()
			p.MSHRsPerSite = mshrs
			bench, err := workload.ByName("swaptions", p.Grid, 0.25)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r := harness.RunBenchmark(bench, networks.PointToPoint, p, 1)
				b.ReportMetric(r.LatencyPerOp.Nanoseconds(), "lat-per-op-ns")
			}
		})
	}
}

// BenchmarkAblationTokenBurst varies the token hold policy (packets per
// acquisition) on the transpose pattern: longer holds trade fairness for
// one-to-one throughput.
func BenchmarkAblationTokenBurst(b *testing.B) {
	for _, burst := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			p := core.DefaultParams()
			p.TokenMaxPacketsPerGrab = burst
			for i := 0; i < b.N; i++ {
				cfg := benchSweepConfig()
				cfg.Params = p
				cfg.Network = networks.TokenRing
				cfg.Pattern = traffic.Transpose{Grid: p.Grid}
				best := 0.0
				for _, load := range harness.Figure6Loads("transpose") {
					cfg.Load = load
					if pt := harness.RunLoadPoint(cfg); !pt.Saturated && load > best {
						best = load
					}
				}
				b.ReportMetric(best*100, "transpose-sat-%")
			}
		})
	}
}
