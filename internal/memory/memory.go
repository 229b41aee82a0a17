// Package memory models the macrochip's off-package main memory — the
// study the paper explicitly defers ("The optical-fiber-connected main
// memory is not modeled in detail. We leave the study of effect of main
// memory technologies on performance to future work", §5; see also §8).
//
// Architecture (paper §3): main memory beyond the per-site DRAM sits off
// the macrochip and is reached over optical fibers through the package's
// edge connectors (up to 2000 edge fibers). A home site that cannot supply
// a line from its on-package memory pays: fiber propagation out, the memory
// device's access time, fiber propagation back, and serialization on the
// site's share of fiber bandwidth.
//
// Technology presets follow the 2015-era projections the paper's platform
// assumes; they exist to let the reproduction explore the deferred
// question: how much does memory technology shift the network comparison?
package memory

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/sim"
)

// Technology describes one main-memory option.
type Technology struct {
	Name string
	// AccessNS is the device access time (row activate + column read).
	AccessNS float64
	// FiberMeters is the one-way fiber length to the memory module.
	FiberMeters float64
	// ChannelGBs is each site's fiber memory bandwidth.
	ChannelGBs float64
	// MissFraction is the probability a home site must go off-package for
	// a line (its on-package DRAM holds the hot fraction of the working
	// set).
	MissFraction float64
}

// Technologies returns the presets used by the memory study.
func Technologies() []Technology {
	return []Technology{
		// On-package only: the baseline the paper simulates (§5) — the
		// home's site DRAM always supplies data.
		{Name: "on-package", AccessNS: 0, FiberMeters: 0, ChannelGBs: 0, MissFraction: 0},
		// Conventional DDR-class DRAM over fiber.
		{Name: "fiber-dram", AccessNS: 45, FiberMeters: 1.0, ChannelGBs: 40, MissFraction: 0.3},
		// Stacked/near memory: faster device, shorter reach.
		{Name: "fiber-stacked", AccessNS: 20, FiberMeters: 0.5, ChannelGBs: 80, MissFraction: 0.3},
		// Storage-class memory: dense but slow.
		{Name: "fiber-scm", AccessNS: 250, FiberMeters: 1.0, ChannelGBs: 20, MissFraction: 0.3},
	}
}

// ByName finds a preset.
func ByName(name string) (Technology, error) {
	for _, t := range Technologies() {
		if t.Name == name {
			return t, nil
		}
	}
	return Technology{}, fmt.Errorf("memory: unknown technology %q", name)
}

// fiberNSPerMeter is light in fiber: ~5 ns/m (n≈1.47).
const fiberNSPerMeter = 5.0

// Controller serializes each site's off-package accesses on its fiber
// channel and applies the technology's latency.
type Controller struct {
	eng  *sim.Engine
	tech Technology
	// chans[s] is site s's fiber memory channel (nil when the technology
	// is on-package).
	chans []*core.Channel
	rng   *sim.RNG

	// Accesses counts off-package fetches.
	Accesses uint64
}

// NewController builds the controller for a machine with `sites` sites.
func NewController(eng *sim.Engine, sites int, tech Technology, seed int64) *Controller {
	c := &Controller{eng: eng, tech: tech, rng: sim.NewRNG(seed)}
	if tech.ChannelGBs > 0 {
		c.chans = make([]*core.Channel, sites)
		for i := range c.chans {
			c.chans[i] = core.NewChannel(tech.ChannelGBs)
		}
	}
	return c
}

// Technology returns the controller's preset.
func (c *Controller) Technology() Technology { return c.tech }

// Access resolves a home-site fetch of `bytes` bytes and runs h.OnEvent
// with arg when the data is available at the home. On-package accesses (or
// the hot fraction) complete immediately; off-package accesses pay fiber
// round trip + device access + channel serialization.
func (c *Controller) Access(site, bytes int, h sim.Handler, arg sim.EventArg) {
	if c.chans == nil || !c.rng.Bool(c.tech.MissFraction) {
		h.OnEvent(c.eng, arg)
		return
	}
	c.Accesses++
	now := c.eng.Now()
	rt := sim.FromNanoseconds(2*c.tech.FiberMeters*fiberNSPerMeter + c.tech.AccessNS)
	_, end := c.chans[site].Reserve(now, bytes)
	c.eng.ScheduleCall(end+rt-now, h, arg)
}

// WorstCaseNS returns the zero-load off-package latency for a fetch.
func (c *Controller) WorstCaseNS(bytes int) float64 {
	if c.chans == nil {
		return 0
	}
	ser := float64(bytes) / c.tech.ChannelGBs // ns, since GB/s == B/ns
	return 2*c.tech.FiberMeters*fiberNSPerMeter + c.tech.AccessNS + ser
}
