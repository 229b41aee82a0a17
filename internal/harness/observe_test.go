package harness

// Tests for the observability wiring: instrumented runs must be
// byte-identical to plain runs, metrics CSVs must carry the per-channel
// time series, and saturated load points must surface their in-flight
// survivors instead of silently under-reporting latency.

import (
	"encoding/csv"
	"strings"
	"testing"

	"macrochip/internal/metrics"
	"macrochip/internal/networks"
	"macrochip/internal/traffic"
)

// TestInstrumentedRunIdentical pins the read-only-sampling contract: wiring
// a registry, probe, and tracer into a run must not change any reported
// number, for every network architecture.
func TestInstrumentedRunIdentical(t *testing.T) {
	for _, kind := range networks.Six() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := quickCfg()
			cfg.Network = kind
			cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
			cfg.Load = 0.05
			plain := RunLoadPoint(cfg)

			cfg.Obs = metrics.Observer{Reg: metrics.NewRegistry(), Trace: metrics.NewTracer()}
			observed := RunLoadPoint(cfg)
			// The probe's own sampling events are the one legitimate
			// difference: instrumentation may add events, never change
			// simulated results.
			if observed.Events < plain.Events {
				t.Fatalf("instrumented run executed fewer events: plain %d observed %d", plain.Events, observed.Events)
			}
			plain.Events, observed.Events = 0, 0
			if plain != observed {
				t.Fatalf("instrumentation changed results:\nplain    %+v\nobserved %+v", plain, observed)
			}
			if cfg.Obs.Reg.Len() == 0 {
				t.Fatal("no instruments registered")
			}
			if cfg.Obs.Trace.Events() == 0 {
				t.Fatal("no trace events recorded")
			}
		})
	}
}

// TestRecordedDeliveriesMatchEvents pins the exactness of recording
// deliveries when they are scheduled: an unobserved point (deliveries
// recorded, core.Stats.Horizon) must equal the same point observed by a
// tracer alone, which keeps one kernel event per delivery, installs a
// dispatch hook and schedules no probe events. Every field must match,
// Events included, on every network and pattern at the lowest and the
// highest load of the pattern's figure-6 range.
func TestRecordedDeliveriesMatchEvents(t *testing.T) {
	base := quickCfg()
	for _, kind := range networks.Six() {
		for _, pat := range traffic.All(base.Params.Grid) {
			loads := Figure6Loads(pat.Name())
			for _, load := range []float64{loads[0], loads[len(loads)-1]} {
				cfg := base
				cfg.Network, cfg.Pattern, cfg.Load = kind, pat, load
				cfg.Seed = PointSeed(base.Seed, kind, pat.Name(), load)
				recorded := RunLoadPoint(cfg)
				cfg.Obs = metrics.Observer{Trace: metrics.NewTracer()}
				if events := RunLoadPoint(cfg); recorded != events {
					t.Errorf("%s %s load %g:\nrecorded %+v\nevents   %+v", kind, pat.Name(), load, recorded, events)
				}
			}
		}
	}
}

// TestSaturatedPointInFlight pins the survivorship-bias fix: a load point
// driven far past a network's capacity must report both saturation and a
// non-zero count of never-delivered packets.
func TestSaturatedPointInFlight(t *testing.T) {
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	// Transpose concentrates each source onto one fixed 5 GB/s pair channel,
	// so 20% of the 320 GB/s site bandwidth (64 GB/s) oversubscribes it 12×.
	cfg.Pattern = traffic.Transpose{Grid: cfg.Params.Grid}
	cfg.Load = 0.2
	pt := RunLoadPoint(cfg)
	if !pt.Saturated {
		t.Fatalf("load %.2f not saturated: %+v", cfg.Load, pt)
	}
	if pt.InFlight == 0 {
		t.Fatal("saturated point reports zero in-flight packets — survivorship bias hidden")
	}
	// Sanity: an unsaturated point drains essentially everything.
	cfg.Load = 0.01
	if pt := RunLoadPoint(cfg); pt.Saturated {
		t.Fatalf("load 0.01 reported saturated: %+v", pt)
	}
}

// TestWriteMetricsCSV runs one instrumented figure-6 point and checks the
// exported time series: long-form header, per-channel utilization rows with
// legal values, and the traffic progress gauges.
func TestWriteMetricsCSV(t *testing.T) {
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.05
	cfg.Obs.Reg = metrics.NewRegistry()
	RunLoadPoint(cfg)

	var b strings.Builder
	if err := WriteMetricsCSV(&b, cfg.Obs.Reg); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("metrics CSV has %d rows", len(recs))
	}
	if h := recs[0]; h[0] != "metric" || h[1] != "t_ns" || h[2] != "value" {
		t.Fatalf("header = %v", h)
	}
	rows := map[string]int{}
	for _, r := range recs[1:] {
		rows[r[0]]++
	}
	// 64 probe ticks per series (Measure/64 default interval over the
	// injection + drain horizon means at least a handful each).
	for _, name := range []string{"ptp/chan/0-1/util", "ptp/chan/63-0/backlog_ns", "traffic/injected", "traffic/inflight/data"} {
		if rows[name] == 0 {
			t.Fatalf("metrics CSV missing series %q (have %d series)", name, len(rows))
		}
	}
}
