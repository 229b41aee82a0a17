// Package cpu implements the trace-driven multiprocessor core model of the
// paper's macrochip CPU simulator (§5): 512 in-order cores (8 per site)
// whose instruction streams generate L2 misses with coherence information.
// Misses issue without blocking the core — the trace keeps retiring — until
// the site's finite MSHRs are exhausted, at which point the core stalls
// waiting for an MSHR. Benchmark runtime is the time for every core to
// retire its instruction quota and for all outstanding coherence operations
// to drain; network speedups (figure 7) are runtime ratios.
package cpu

import (
	"slices"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// Mix is a coherence sharing mix (§5): the probability that a miss hits a
// block with sharers, how many, and how often the shared case is a write
// (invalidation fan-out) rather than a dirty-owner forward.
type Mix struct {
	Name string
	// PSharers is the probability a coherence request finds sharers.
	PSharers float64
	// NSharers is the number of sharers when present.
	NSharers int
	// InvalidateFrac is the fraction of shared-case misses that are writes
	// requiring invalidations (the rest are read forwards).
	InvalidateFrac float64
}

// LessSharing is the paper's "LS" mix: 90% of coherence requests have no
// sharers.
var LessSharing = Mix{Name: "LS", PSharers: 0.10, NSharers: 1, InvalidateFrac: 0.5}

// MoreSharing is the paper's "MS" mix: 40% of requests have three sharers,
// producing the invalidate/ack-heavy traffic that punishes arbitrated
// networks (§6.2).
var MoreSharing = Mix{Name: "MS", PSharers: 0.40, NSharers: 3, InvalidateFrac: 1.0}

// Benchmark describes one workload for the coherence-driven study.
type Benchmark struct {
	Name string
	// MissPerInstr is the L2 miss rate per instruction (0.04 for the
	// synthetic benchmarks).
	MissPerInstr float64
	// Mix is the sharing mix driving the protocol.
	Mix Mix
	// Pattern chooses the home site of each missed block relative to the
	// requester.
	Pattern traffic.Pattern
	// InstrPerCore is each core's instruction quota.
	InstrPerCore int
}

// Result summarizes one (benchmark, network) simulation.
type Result struct {
	Benchmark string
	Network   string
	// Runtime is the simulated execution time.
	Runtime sim.Time
	// Ops and LatencyPerOp give figure 8's metric.
	Ops          uint64
	LatencyPerOp sim.Time
	MaxLatency   sim.Time
	// Stats is the network's statistics sink (drives the energy model).
	Stats *core.Stats
}

// Run executes the benchmark over the given network and returns the result.
// The network must share the provided engine and stats sink. An optional
// memory backend (variadic; at most one) attaches off-package main memory.
func Run(b Benchmark, eng *sim.Engine, p core.Params, net core.Network, stats *core.Stats, seed int64, mem ...coherence.MemoryBackend) Result {
	coh := coherence.NewEngine(eng, p, net)
	if len(mem) > 0 && mem[0] != nil {
		coh.SetMemory(mem[0])
	}
	m := &machine{bench: b, p: p, eng: eng, coh: coh}
	root := sim.NewRNG(seed)
	cores := make([]coreState, p.Grid.Sites()*p.CoresPerSite)
	for i := range cores {
		c := &cores[i]
		*c = coreState{
			m:      m,
			site:   geometry.SiteID(i / p.CoresPerSite),
			rng:    root.Derive(int64(i)),
			remain: b.InstrPerCore,
		}
		c.onIssued = c.execute
		c.execute()
	}
	eng.Run()
	if m.done != len(cores) {
		panic("cpu: benchmark ended with unfinished cores")
	}
	return Result{
		Benchmark:    b.Name,
		Network:      net.Name(),
		Runtime:      eng.Now(),
		Ops:          coh.Completed,
		LatencyPerOp: coh.MeanLatency(),
		MaxLatency:   coh.MaxLatency,
		Stats:        stats,
	}
}

// machine is one run's state, shared by every core.
type machine struct {
	bench Benchmark
	p     core.Params
	eng   *sim.Engine
	coh   *coherence.Engine
	// done counts the cores that have retired their quota.
	done int
	// sharers is pickSharers' scratch. Issue copies the sites out, so
	// every core draws into the same slice.
	sharers []geometry.SiteID
}

// coreState is one in-order core walking its synthetic trace. It is the
// sim.Handler for the end of its current trace segment, so scheduling a
// segment builds no closure.
type coreState struct {
	m      *machine
	site   geometry.SiteID
	rng    *sim.RNG
	remain int
	// onIssued is c.execute, bound once: every miss's Op carries it.
	onIssued func()
}

// execute runs the next trace segment: a run of hit instructions followed
// by one miss (or the final run to the quota).
func (c *coreState) execute() {
	if c.remain <= 0 {
		c.m.done++
		return
	}
	// Geometric miss spacing with mean 1/MissPerInstr, capped at the
	// remaining quota.
	gap := c.remain
	if c.m.bench.MissPerInstr > 0 {
		if g := c.rng.Geometric(1.0 / c.m.bench.MissPerInstr); g < gap {
			gap = g
		}
	}
	c.remain -= gap
	c.m.eng.ScheduleCall(c.m.p.Cycles(gap), c, sim.EventArg{})
}

// OnEvent implements sim.Handler: the segment execute scheduled has run.
// The core has retired its quota, or the segment ends in a miss.
func (c *coreState) OnEvent(*sim.Engine, sim.EventArg) {
	if c.remain <= 0 {
		c.m.done++
		return
	}
	c.issueMiss()
}

// issueMiss builds the coherence operation for this miss and hands it to
// the protocol engine. The core resumes its trace as soon as the operation
// holds an MSHR; it does not wait for completion (misses overlap up to the
// MSHR limit).
func (c *coreState) issueMiss() {
	home := c.m.bench.Pattern.Dest(c.site, c.rng)
	op := coherence.Op{
		Requester: c.site,
		Home:      home,
		OnIssued:  c.onIssued,
	}
	mix := c.m.bench.Mix
	if mix.PSharers > 0 && c.rng.Bool(mix.PSharers) {
		op.Sharers = c.pickSharers(home, mix.NSharers)
		op.Write = c.rng.Bool(mix.InvalidateFrac)
	}
	c.m.coh.Issue(op)
}

// pickSharers selects k distinct sharer sites different from the requester
// and the home, redrawing any site already excluded. It returns the
// machine's scratch slice, valid until the next call.
func (c *coreState) pickSharers(home geometry.SiteID, k int) []geometry.SiteID {
	sites := c.m.p.Grid.Sites()
	if k > sites-2 {
		k = sites - 2
	}
	chosen := c.m.sharers[:0]
	for len(chosen) < k {
		s := geometry.SiteID(c.rng.Intn(sites))
		if s == c.site || s == home || slices.Contains(chosen, s) {
			continue
		}
		chosen = append(chosen, s)
	}
	c.m.sharers = chosen
	return chosen
}
