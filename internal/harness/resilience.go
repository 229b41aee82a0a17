package harness

import (
	"fmt"
	"math"
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// The resilience study is the evaluation axis the paper never had: every
// network run under a seeded schedule of photonic component failures
// (internal/fault), with the open-loop generator's retry layer recovering
// what it can. The output is a degraded-throughput/availability surface
// over fault rate × fault class × network.

// ResilienceConfig describes one resilience sweep.
type ResilienceConfig struct {
	Params core.Params
	// Networks and Classes select the sweep axes; nil means all six
	// networks and all three fault classes.
	Networks []networks.Kind
	Classes  []fault.Class
	// Rates are the fault rates swept, in expected failures per site per
	// simulated millisecond. Include 0 for the per-class perfect baseline.
	Rates []float64
	// Load and PacketBytes drive the uniform open-loop traffic.
	Load        float64
	PacketBytes int
	// Warmup and Measure window the throughput measurement, as in the
	// figure-6 study.
	Warmup, Measure sim.Time
	// MTTR is the mean repair time of an injected fault.
	MTTR sim.Time
	// Retry is the end-to-end recovery policy of the traffic layer.
	Retry traffic.RetryPolicy
	Seed  int64
}

// DefaultResilienceConfig returns a sweep that stresses all six networks
// under all three fault classes at increasing rates.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Params:      core.DefaultParams(),
		Rates:       []float64{0, 5, 20, 80},
		Load:        0.05,
		PacketBytes: 64,
		Warmup:      1 * sim.Microsecond,
		Measure:     4 * sim.Microsecond,
		MTTR:        2 * sim.Microsecond,
		Retry:       traffic.RetryPolicy{Timeout: 2 * sim.Microsecond, MaxRetries: 3},
		Seed:        1,
	}
}

// QuickResilienceConfig is DefaultResilienceConfig with the short windows,
// repair time and retry timeout of -quick, shared by cmd/resilience and the
// daemon.
func QuickResilienceConfig() ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Warmup = 250 * sim.Nanosecond
	cfg.Measure = 1 * sim.Microsecond
	cfg.MTTR = 500 * sim.Nanosecond
	cfg.Retry.Timeout = 500 * sim.Nanosecond
	return cfg
}

// ResiliencePoint is one (network, class, rate) cell of the sweep.
type ResiliencePoint struct {
	Network networks.Kind
	Class   fault.Class
	// Rate is the configured fault rate (failures per site per ms).
	Rate float64
	// Faults is the number of failure events the plan injected.
	Faults int
	// ThroughputGBs is the accepted throughput inside the measurement
	// window; Availability is delivered/injected over the whole run.
	ThroughputGBs float64
	Availability  float64
	MeanLatency   sim.Time
	Dropped       uint64
	Retries       uint64
	Aborts        uint64
}

// ResilienceSeed derives one point's seed purely from its identity, with
// the same any-worker-count reproducibility guarantee as PointSeed.
func ResilienceSeed(base int64, k networks.Kind, c fault.Class, rate float64) int64 {
	return sim.DeriveSeed(base,
		sim.StringLabel(string(k)), sim.StringLabel(c.String()), math.Float64bits(rate))
}

// RunResiliencePoint simulates one cell: the network wrapped in a fault
// decorator, a seeded fault plan installed, uniform open-loop traffic with
// retry recovery.
func RunResiliencePoint(cfg ResilienceConfig, k networks.Kind, c fault.Class, rate float64) ResiliencePoint {
	eng := sim.NewEngine()
	stats := core.NewStats(cfg.Warmup)
	end := cfg.Warmup + cfg.Measure
	stats.MeasureEnd = end

	seed := ResilienceSeed(cfg.Seed, k, c, rate)
	inner := networks.MustNew(k, eng, cfg.Params, stats)
	fnet := fault.Wrap(eng, cfg.Params, inner, seed)
	plan := fault.NewPlan(fault.PlanConfig{
		Grid:             cfg.Params.Grid,
		Classes:          []fault.Class{c},
		RatePerSitePerMs: rate,
		Horizon:          end,
		MTTR:             cfg.MTTR,
	}, sim.DeriveSeed(seed, sim.StringLabel("fault-plan")))
	inj := fault.NewInjector(eng, fnet, plan)
	inj.Install()

	gen := &traffic.OpenLoop{
		Eng:         eng,
		Params:      cfg.Params,
		Net:         fnet,
		Pattern:     traffic.Uniform{Grid: cfg.Params.Grid},
		Load:        cfg.Load,
		PacketBytes: cfg.PacketBytes,
		Until:       end,
		Seed:        seed,
		Retry:       cfg.Retry,
	}
	gen.Start()
	// Run past the injection horizon so retries and repairs can play out,
	// then cut off (a hard-faulted network would never fully drain).
	eng.RunUntil(end + cfg.Measure)

	return ResiliencePoint{
		Network:       k,
		Class:         c,
		Rate:          rate,
		Faults:        inj.Count(),
		ThroughputGBs: stats.ThroughputGBs(),
		Availability:  stats.Availability(),
		MeanLatency:   stats.MeanLatency(),
		Dropped:       stats.Dropped,
		Retries:       stats.Retries,
		Aborts:        stats.Aborts,
	}
}

// ResilienceStudyWith sweeps fault rate × class × network on the Runner.
// Points are slotted by index and seeded by ResilienceSeed, so output is
// byte-identical at every worker count.
func ResilienceStudyWith(r Runner, cfg ResilienceConfig) []ResiliencePoint {
	kinds := cfg.Networks
	if kinds == nil {
		kinds = networks.Six()
	}
	classes := cfg.Classes
	if classes == nil {
		classes = fault.AllClasses()
	}
	cells := make([]cell[ResiliencePoint], 0, len(kinds)*len(classes)*len(cfg.Rates))
	for _, k := range kinds {
		for _, c := range classes {
			for _, rate := range cfg.Rates {
				cells = append(cells, newCell(CellResilience, specForResilience(cfg, k, c, rate), func() ResiliencePoint {
					return RunResiliencePoint(cfg, k, c, rate)
				}))
			}
		}
	}
	return runCells(r, cells)
}

// RenderResilience renders the sweep as an aligned text table, one row per
// (network, class, rate) point.
func RenderResilience(points []ResiliencePoint) string {
	var b strings.Builder
	b.WriteString("Resilience study — degraded throughput and availability vs fault rate\n")
	fmt.Fprintf(&b, "%-24s %-14s %10s %7s %12s %7s %10s %9s %9s %8s\n",
		"network", "fault class", "rate/site/ms", "faults", "thru (GB/s)", "avail", "mean (ns)", "dropped", "retries", "aborts")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-24s %-14s %12.4g %7d %12.1f %7.4f %10.1f %9d %9d %8d\n",
			pt.Network, pt.Class, pt.Rate, pt.Faults,
			pt.ThroughputGBs, pt.Availability, pt.MeanLatency.Nanoseconds(),
			pt.Dropped, pt.Retries, pt.Aborts)
	}
	return b.String()
}
