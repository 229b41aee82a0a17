// Package harness runs the paper's experiments: the figure-6 load sweeps,
// the figure-7/8/9/10 benchmark studies, and the table-5/6 analyses. Each
// function returns plain result structs; formatting lives in the callers
// (cmd/figures, bench_test.go, examples).
package harness

import (
	"macrochip/internal/core"
	"macrochip/internal/metrics"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// LoadPointConfig describes one (network, pattern, load) simulation of the
// figure-6 study.
type LoadPointConfig struct {
	Params  core.Params
	Network networks.Kind
	Pattern traffic.Pattern
	// Load is offered load per site as a fraction of 320 GB/s.
	Load float64
	// PacketBytes is 64 in the paper's tests.
	PacketBytes int
	// Warmup and Measure are the settle and measurement windows.
	Warmup, Measure sim.Time
	Seed            int64

	// Obs, when enabled, wires the observability layer into the network and
	// generator; a registry is sampled every Measure/64. Sampling is
	// read-only, so instrumented results are byte-identical to
	// uninstrumented ones (pinned by a test). Only RunLoadPoint reads it: a
	// cell's spec carries no observer, so the figure-6 studies run their
	// points unobserved.
	Obs metrics.Observer
}

// LoadPoint is the outcome of one load-sweep simulation.
type LoadPoint struct {
	Load          float64
	MeanLatency   sim.Time
	P95Latency    sim.Time
	MaxLatency    sim.Time
	ThroughputGBs float64 // accepted throughput, all sites
	// OfferedGBs is the configured injection rate, all sites.
	OfferedGBs float64
	// Saturated is set when accepted throughput falls visibly below offered
	// (the point past the latency asymptote).
	Saturated bool
	Delivered uint64
	// InFlight counts packets injected but never delivered by the drain
	// cutoff. At saturated points these survivors carry the highest
	// latencies, so the latency columns are biased low exactly when this
	// column is large — report it rather than pretending the sample is
	// complete.
	InFlight uint64
	// Events is the number of kernel events the simulation dispatched — the
	// denominator of the events/sec throughput the benchmark baseline
	// tracks. Not written to the figure-6 CSV.
	Events uint64
}

// DefaultLoadPointConfig fills the standard figure-6 settings.
func DefaultLoadPointConfig() LoadPointConfig {
	return LoadPointConfig{
		Params:      core.DefaultParams(),
		PacketBytes: 64,
		Warmup:      2 * sim.Microsecond,
		Measure:     6 * sim.Microsecond,
		Seed:        1,
	}
}

// QuickLoadPointConfig is DefaultLoadPointConfig with the short windows
// of -quick, shared by cmd/figures, cmd/report and the daemon.
func QuickLoadPointConfig() LoadPointConfig {
	cfg := DefaultLoadPointConfig()
	cfg.Warmup = 500 * sim.Nanosecond
	cfg.Measure = 1500 * sim.Nanosecond
	return cfg
}

// RunLoadPoint simulates one point of the latency-vs-offered-load curve.
func RunLoadPoint(cfg LoadPointConfig) LoadPoint {
	eng := sim.NewEngine()
	stats := core.NewStats(cfg.Warmup)
	end := cfg.Warmup + cfg.Measure
	stats.MeasureEnd = end
	net := networks.MustNew(cfg.Network, eng, cfg.Params, stats)
	gen := &traffic.OpenLoop{
		Eng:         eng,
		Params:      cfg.Params,
		Net:         net,
		Pattern:     cfg.Pattern,
		Load:        cfg.Load,
		PacketBytes: cfg.PacketBytes,
		Until:       end,
		Seed:        cfg.Seed,
	}
	gen.Start()
	if cfg.Obs.Enabled() {
		metrics.Instrument(net, cfg.Obs)
		metrics.Instrument(gen, cfg.Obs)
		// One engine-load counter sample every 1024 dispatches keeps the
		// trace small at any simulation length.
		cfg.Obs.Trace.AttachEngine(eng, 1024)
		if cfg.Obs.Reg != nil {
			metrics.NewProbe(eng, cfg.Obs.Reg, cfg.Measure/64).Start(end + cfg.Measure)
		}
	}
	// Run past the injection horizon so in-flight packets drain enough for
	// stable statistics, then cut off: a saturated network would never
	// drain completely.
	eng.RunUntil(cfg.Warmup + 2*cfg.Measure)
	offered := cfg.Load * cfg.Params.SiteBandwidthGBs * float64(cfg.Params.Grid.Sites())
	thru := stats.ThroughputGBs()
	return LoadPoint{
		Load:          cfg.Load,
		MeanLatency:   stats.MeanLatency(),
		P95Latency:    stats.LatencyPercentile(95),
		MaxLatency:    stats.MaxLatency(),
		ThroughputGBs: thru,
		OfferedGBs:    offered,
		Saturated:     thru < 0.90*offered,
		Delivered:     stats.Delivered,
		InFlight:      stats.InFlight(),
		Events:        eng.Executed(),
	}
}

// SaturationSearch finds the highest offered load (as a fraction of site
// bandwidth, within tol) that the network still accepts, by bisection on
// the Saturated flag. It returns that load fraction. The bisection is
// inherently sequential — each probe depends on the last — but distinct
// searches are independent; see SaturationSweep.
func SaturationSearch(cfg LoadPointConfig, lo, hi, tol float64) float64 {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		cfg.Load = mid
		if RunLoadPoint(cfg).Saturated {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// SaturationSweep runs one SaturationSearch per config concurrently on the
// Runner's pool and returns the saturation loads slotted in config order.
// Each bisection stays sequential internally; the sweep parallelizes across
// the independent searches (e.g. the five networks of a §6.1 comparison).
// The searches use neither the Runner's cache nor its fleet.
func SaturationSweep(r Runner, cfgs []LoadPointConfig, lo, hi, tol float64) []float64 {
	return runIndexed(r, len(cfgs), func(i int) float64 {
		return SaturationSearch(cfgs[i], lo, hi, tol)
	})
}
