// Package core defines the shared substrate of all five macrochip network
// models: the simulated configuration (paper table 4), packets and message
// classes, bandwidth-serializing channels, delivery statistics, and the
// Network interface the experiment harness drives.
package core

import (
	"macrochip/internal/geometry"
	"macrochip/internal/photonics"
	"macrochip/internal/sim"
)

// Params collects every tunable of the simulated macrochip. The defaults
// (see DefaultParams) reproduce the paper's scaled-down configuration of
// §4/table 4: 64 sites, 8 cores/site, 320 GB/s per site, 20 TB/s peak.
//
// Parameters the paper does not state explicitly are marked "assumption" and
// their sensitivity is discussed in EXPERIMENTS.md.
type Params struct {
	Grid geometry.Grid
	Comp photonics.Components

	// CoreGHz is the clock of the scaled Niagara-derived cores (5 GHz).
	CoreGHz float64
	// CoresPerSite is 8 in the simulated configuration (64 in the 2015
	// target system).
	CoresPerSite int
	// L2KBPerSite is the shared per-site L2 size (256 KB).
	L2KBPerSite int
	// CacheLineBytes is the coherence unit (64 B).
	CacheLineBytes int
	// SiteBandwidthGBs is the peak per-site injection bandwidth
	// (320 GB/s = 128 transmitters × 2.5 GB/s).
	SiteBandwidthGBs float64
	// WavelengthsPerWaveguide is the WDM factor of the scaled system (8).
	WavelengthsPerWaveguide int
	// TxPerSite / RxPerSite are the per-site optical endpoint counts (128).
	TxPerSite, RxPerSite int

	// ---- Static WDM point-to-point network (§4.2) ----

	// PtPWavelengthsPerChannel is the number of wavelengths dedicated to one
	// source→destination channel (2, giving 5 GB/s).
	PtPWavelengthsPerChannel int

	// ---- Limited point-to-point network (§4.6) ----

	// LimitedLinkGBs is the direct channel bandwidth to each row/column peer
	// (20 GB/s).
	LimitedLinkGBs float64
	// RouterCycles is the latency of the 7×7 electronic forwarding router
	// (1 cycle, paper §4.6).
	RouterCycles int
	// RouterEnergyPJPerByte is the electronic router's switching energy
	// (60 pJ/B, paper §6.3, after Firefly).
	RouterEnergyPJPerByte float64

	// ---- Token-ring crossbar, Corona adapted (§4.4) ----

	// TokenRoundTripCycles is the token's full ring circulation time scaled
	// to macrochip dimensions (80 cycles = 10× Corona's 8).
	TokenRoundTripCycles int
	// TokenBundleGBs is the bandwidth of one destination's home waveguide
	// bundle. A 64-byte packet transmits in one 5 GHz cycle (paper §6.1), so
	// the bundle is 320 GB/s.
	TokenBundleGBs float64
	// TokenWDM is the token-ring adaptation's WDM factor (2, down from
	// Corona's 64, to keep pass-by modulator-ring loss at 12.8 dB — paper
	// §4.4). It drives the power and complexity analyses; the data-path
	// timing model is WDM-independent.
	TokenWDM int
	// TokenMaxPacketsPerGrab bounds how many queued packets a site may send
	// per token acquisition. 1 reproduces the paper's transpose result of
	// <1% utilization (one cycle of data per 80-cycle recirculation).
	// Assumption: the paper does not state the hold policy.
	TokenMaxPacketsPerGrab int

	// ---- Two-phase arbitrated network (§4.3) ----

	// TwoPhaseChannelGBs is the shared row→destination channel bandwidth
	// (40 GB/s, 16 bits wide).
	TwoPhaseChannelGBs float64
	// ArbSlotPS is the arbitration slot (0.4 ns).
	ArbSlotPS sim.Time
	// TwoPhaseTreesPerColumn is the number of switch trees a site has per
	// column (1 in the base design; 2 in the ALT design).
	TwoPhaseTreesPerColumn int
	// TwoPhaseSwitchSetupPS is the broadband switch actuation time charged
	// between slot grant and data launch (assumption: 1 ns).
	TwoPhaseSwitchSetupPS sim.Time

	// ---- Circuit-switched torus (§4.5) ----

	// CircuitDataGBs is the bandwidth of one optical circuit: one waveguide
	// of 8 wavelengths = 20 GB/s.
	CircuitDataGBs float64
	// CircuitSlotsPerSite is how many circuits a site's gateway can have in
	// flight concurrently (assumption: 4 of the 16 sourced waveguides have
	// independent setup engines).
	CircuitSlotsPerSite int
	// CircuitCtrlFlitBytes is the path-setup flit size on the optical
	// control network (assumption: 8 B).
	CircuitCtrlFlitBytes int
	// CircuitCtrlGBs is the control network bandwidth (one wavelength,
	// 2.5 GB/s).
	CircuitCtrlGBs float64
	// CircuitRouterCycles is the per-hop processing of a setup packet in the
	// path-setup router (assumption: 1 cycle, matching the electronic
	// routers elsewhere in the paper).
	CircuitRouterCycles int
	// CircuitWorstSwitchHops is the worst-case number of 4×4 switch
	// traversals used for the loss budget (31, paper §4.5).
	CircuitWorstSwitchHops int

	// ---- Coherence / CPU model (§5) ----

	// MSHRsPerSite bounds outstanding coherence transactions per site. The
	// paper models "finite MSHRs" without giving a count; 32 (4 per core)
	// reproduces the paper's figure-8 latency bands — see EXPERIMENTS.md
	// and BenchmarkAblationMSHR for the sensitivity.
	MSHRsPerSite int
	// CtrlMsgBytes is the size of request/invalidate/ack coherence messages
	// (assumption: 16 B).
	CtrlMsgBytes int
	// DataMsgBytes is a cache-line-carrying message (64 B line + 8 B
	// header).
	DataMsgBytes int
	// DirectoryLookupCycles is the home-site directory/L2 access time
	// (assumption: 10 cycles = 2 ns).
	DirectoryLookupCycles int
	// IntraSiteCycles is the single-cycle loop-back link for intra-site
	// traffic (paper §6.2).
	IntraSiteCycles int

	// MemoryTech names the off-package main-memory technology preset (see
	// internal/memory.Technologies). Empty or "on-package" reproduces the
	// paper's baseline, in which the home site always supplies data from
	// on-package memory.
	MemoryTech string

	// ---- Power accounting (§6.3) ----

	// CoreWatts is the per-core power of the scaled processor (1 W).
	CoreWatts float64
}

// DefaultParams returns the paper's simulated configuration.
func DefaultParams() Params {
	return Params{
		Grid:                    geometry.Default8x8(),
		Comp:                    photonics.Default(),
		CoreGHz:                 5,
		CoresPerSite:            8,
		L2KBPerSite:             256,
		CacheLineBytes:          64,
		SiteBandwidthGBs:        320,
		WavelengthsPerWaveguide: 8,
		TxPerSite:               128,
		RxPerSite:               128,

		PtPWavelengthsPerChannel: 2,

		LimitedLinkGBs:        20,
		RouterCycles:          1,
		RouterEnergyPJPerByte: 60,

		TokenRoundTripCycles:   80,
		TokenWDM:               2,
		TokenBundleGBs:         320,
		TokenMaxPacketsPerGrab: 1,

		TwoPhaseChannelGBs:     40,
		ArbSlotPS:              400 * sim.Picosecond,
		TwoPhaseTreesPerColumn: 1,
		TwoPhaseSwitchSetupPS:  1 * sim.Nanosecond,

		CircuitDataGBs:         20,
		CircuitSlotsPerSite:    4,
		CircuitCtrlFlitBytes:   8,
		CircuitCtrlGBs:         2.5,
		CircuitRouterCycles:    1,
		CircuitWorstSwitchHops: 31,

		MSHRsPerSite:          32,
		CtrlMsgBytes:          16,
		DataMsgBytes:          72,
		DirectoryLookupCycles: 10,
		IntraSiteCycles:       1,

		CoreWatts: 1,
	}
}

// CyclePS returns one core clock period in picoseconds (200 ps at 5 GHz).
func (p Params) CyclePS() sim.Time {
	return sim.Time(1e3/p.CoreGHz + 0.5)
}

// Cycles returns n core cycles as a duration.
func (p Params) Cycles(n int) sim.Time { return sim.Time(n) * p.CyclePS() }

// PropDelay returns the optical propagation delay between two sites along
// the L-shaped row/column route.
func (p Params) PropDelay(a, b geometry.SiteID) sim.Time {
	ns := p.Grid.ManhattanCM(a, b) * p.Comp.PropagationNSPerCM
	return sim.FromNanoseconds(ns)
}

// PtPChannelGBs is the static point-to-point per-channel bandwidth:
// wavelengths × 2.5 GB/s (5 GB/s at the default 2 wavelengths).
func (p Params) PtPChannelGBs() float64 {
	return float64(p.PtPWavelengthsPerChannel) * p.Comp.BytesPerSecond() / 1e9
}

// PeakBandwidthGBs is the total peak network bandwidth: 64 × 320 GB/s =
// 20 TB/s (reported in GB/s).
func (p Params) PeakBandwidthGBs() float64 {
	return float64(p.Grid.Sites()) * p.SiteBandwidthGBs
}
