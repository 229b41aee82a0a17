package harness

import (
	"strings"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

func quickCfg() LoadPointConfig {
	cfg := DefaultLoadPointConfig()
	cfg.Warmup = 300 * sim.Nanosecond
	cfg.Measure = 900 * sim.Nanosecond
	return cfg
}

func TestRunLoadPointUnsaturated(t *testing.T) {
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.2
	r := RunLoadPoint(cfg)
	if r.Saturated {
		t.Fatalf("point-to-point saturated at 20%%: %+v", r)
	}
	if r.MeanLatency <= 0 || r.MeanLatency > 100*sim.Nanosecond {
		t.Fatalf("mean latency = %v", r.MeanLatency)
	}
	if r.ThroughputGBs < 0.9*r.OfferedGBs {
		t.Fatalf("accepted %v vs offered %v", r.ThroughputGBs, r.OfferedGBs)
	}
}

func TestRunLoadPointSaturated(t *testing.T) {
	cfg := quickCfg()
	cfg.Network = networks.CircuitSwitched
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.20 // far past the ~2.4% circuit-switched ceiling
	r := RunLoadPoint(cfg)
	if !r.Saturated {
		t.Fatalf("circuit-switched not saturated at 20%%: %+v", r)
	}
	if r.ThroughputGBs >= r.OfferedGBs {
		t.Fatal("saturated point accepted full offered load")
	}
}

// TestRunLoadPointTinyLoadInjectsNothing offers loads whose mean gap
// passes the end of the time axis: no site injects within the run.
func TestRunLoadPointTinyLoadInjectsNothing(t *testing.T) {
	for _, load := range []float64{1e-17, 1e-300} {
		cfg := DefaultLoadPointConfig()
		cfg.Warmup, cfg.Measure = sim.Nanosecond, sim.Nanosecond
		cfg.Network = networks.PointToPoint
		cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
		cfg.Load = load
		r := RunLoadPoint(cfg)
		if r.Delivered != 0 || r.InFlight != 0 || r.Events != 0 {
			t.Errorf("load %g: %d delivered, %d in flight, %d events; want none",
				load, r.Delivered, r.InFlight, r.Events)
		}
	}
}

func TestSaturationSearchPointToPointTranspose(t *testing.T) {
	// The transpose ceiling for the point-to-point network is the 5 GB/s
	// pair channel: 1.5625% of 320 GB/s.
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Transpose{Grid: cfg.Params.Grid}
	got := SaturationSearch(cfg, 0.001, 0.05, 0.002)
	if got < 0.010 || got > 0.020 {
		t.Fatalf("transpose saturation = %.3f, want ~0.0156", got)
	}
}

func TestFigure6LoadsRanges(t *testing.T) {
	if got := Figure6Loads("uniform"); got[len(got)-1] != 0.95 {
		t.Fatalf("uniform grid tops at %v", got[len(got)-1])
	}
	if got := Figure6Loads("transpose"); got[len(got)-1] != 0.06 {
		t.Fatalf("transpose grid tops at %v", got[len(got)-1])
	}
	if got := Figure6Loads("neighbor"); got[len(got)-1] != 0.25 {
		t.Fatalf("neighbor grid tops at %v", got[len(got)-1])
	}
	for _, pat := range []string{"uniform", "transpose", "neighbor", "butterfly"} {
		loads := Figure6Loads(pat)
		for i := 1; i < len(loads); i++ {
			if loads[i] <= loads[i-1] {
				t.Fatalf("%s load grid not increasing", pat)
			}
		}
	}
}

func TestRunBenchmarkAndStudyRow(t *testing.T) {
	p := core.DefaultParams()
	b, err := workload.ByName("blackscholes", p.Grid, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	row := StudyRow{Benchmark: b.Name, Cells: map[networks.Kind]BenchResult{}}
	for _, k := range []networks.Kind{networks.CircuitSwitched, networks.PointToPoint, networks.LimitedPtP} {
		row.Cells[k] = RunBenchmark(b, k, p, 3)
	}
	if sp := row.Speedup(networks.CircuitSwitched); sp != 1 {
		t.Fatalf("self speedup = %v", sp)
	}
	if sp := row.Speedup(networks.PointToPoint); sp <= 1 {
		t.Fatalf("point-to-point speedup = %v, want > 1", sp)
	}
	if l := row.LatencyPerOp(networks.PointToPoint); l <= 0 {
		t.Fatalf("latency per op = %v", l)
	}
	if f := row.RouterFraction(); f <= 0 || f >= 1 {
		t.Fatalf("router fraction = %v", f)
	}
	if e := row.NormalizedEDP(networks.PointToPoint); e != 1 {
		t.Fatalf("self-normalized EDP = %v", e)
	}
	if e := row.NormalizedEDP(networks.CircuitSwitched); e <= 1 {
		t.Fatalf("circuit-switched normalized EDP = %v, want > 1", e)
	}
}

func TestRenderers(t *testing.T) {
	p := core.DefaultParams()
	rows := RunStudyWith(Runner{}, workload.Synthetics(p.Grid, 0.02)[:1], networks.Six(), p, 1)

	if s := RenderFigure7(rows); !strings.Contains(s, "all-to-all") || !strings.Contains(s, "Figure 7") {
		t.Fatalf("figure 7 render:\n%s", s)
	}
	if s := RenderFigure8(rows); !strings.Contains(s, "latency per coherence") {
		t.Fatalf("figure 8 render:\n%s", s)
	}
	if s := RenderFigure9(rows); !strings.Contains(s, "%") {
		t.Fatalf("figure 9 render:\n%s", s)
	}
	if s := RenderFigure10(rows); !strings.Contains(s, "normalized to point-to-point") {
		t.Fatalf("figure 10 render:\n%s", s)
	}
	if s := RenderTable5(p); !strings.Contains(s, "laser") {
		t.Fatalf("table 5 render:\n%s", s)
	}
	if s := RenderTable6(p); !strings.Contains(s, "Token-Ring") {
		t.Fatalf("table 6 render:\n%s", s)
	}
}

func TestRenderFigure6(t *testing.T) {
	cfg := quickCfg()
	panel := Figure6Panel{Pattern: "transpose"}
	for _, k := range []networks.Kind{networks.PointToPoint, networks.LimitedPtP} {
		s := SweepSeries{Network: k}
		for _, load := range []float64{0.005, 0.02} {
			c := cfg
			c.Network = k
			c.Pattern = traffic.Transpose{Grid: cfg.Params.Grid}
			c.Load = load
			s.Points = append(s.Points, RunLoadPoint(c))
		}
		panel.Series = append(panel.Series, s)
	}
	out := RenderFigure6(panel)
	if !strings.Contains(out, "transpose") || !strings.Contains(out, "0.50") {
		t.Fatalf("figure 6 render:\n%s", out)
	}
	sat := SaturationSummary(panel)
	if sat[networks.LimitedPtP] < sat[networks.PointToPoint] {
		t.Fatalf("limited should sustain more transpose load: %+v", sat)
	}
}

func TestStudyHelpers(t *testing.T) {
	p := core.DefaultParams()
	rows := RunStudyWith(Runner{}, workload.Synthetics(p.Grid, 0.02)[:2], []networks.Kind{networks.PointToPoint, networks.CircuitSwitched}, p, 1)
	if rt := MeanRuntime(rows, networks.PointToPoint); rt <= 0 {
		t.Fatalf("mean runtime = %v", rt)
	}
	names := SortedBenchmarks(rows)
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
}
