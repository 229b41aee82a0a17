// Package ptp implements the statically-routed WDM point-to-point network of
// paper §4.2.
//
// Every site owns a dedicated optical data path to every other site: the
// transmitter picks the waveguide leading to the destination's column and
// the wavelength that the destination's drop filter extracts. There is no
// switching, no arbitration and no path setup — a packet waits only for its
// own channel to drain. Each channel is PtPWavelengthsPerChannel wavelengths
// wide (2 × 2.5 GB/s = 5 GB/s by default), which is the network's only
// weakness: a single site pair can never exceed 5 GB/s.
package ptp

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/photonics"
	"macrochip/internal/sim"
)

// Network is the static point-to-point fabric.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	stats *core.Stats
	// chans[src][dst] is the dedicated channel; nil on the diagonal.
	chans [][]*core.Channel
	// paths memoizes per-pair propagation delays and link budgets.
	paths *core.PathTable
	// intraDelay is the single-cycle loop-back latency, precomputed.
	intraDelay sim.Time

	// tr and siteTrack carry optional trace instrumentation (nil/empty when
	// disabled; see Instrument).
	tr        *metrics.Tracer
	siteTrack []metrics.TrackID
}

// New constructs the network.
func New(eng *sim.Engine, p core.Params, stats *core.Stats) *Network {
	n := p.Grid.Sites()
	chans := make([][]*core.Channel, n)
	for s := 0; s < n; s++ {
		chans[s] = make([]*core.Channel, n)
		for d := 0; d < n; d++ {
			if s != d {
				chans[s][d] = core.NewChannel(p.PtPChannelGBs())
			}
		}
	}
	return &Network{
		eng:        eng,
		p:          p,
		stats:      stats,
		chans:      chans,
		paths:      core.NewPathTable(p),
		intraDelay: p.Cycles(p.IntraSiteCycles),
	}
}

// Name implements core.Network.
func (n *Network) Name() string { return "Point-to-Point" }

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.stats }

// Inject implements core.Network: the packet serializes on its dedicated
// channel and arrives one propagation delay after its last byte leaves.
// Deliveries go through Stats.DeliverAfter.
func (n *Network) Inject(p *core.Packet) {
	now := n.eng.Now()
	n.stats.StampInjection(p, now)
	if p.Src == p.Dst {
		n.stats.DeliverAfter(n.eng, n.intraDelay, p)
		return
	}
	start, end := n.chans[p.Src][p.Dst].Reserve(now, p.Bytes)
	arrive := end + n.paths.Delay(p.Src, p.Dst)
	n.stats.AddOpticalTraversal(p.Bytes)
	if n.tr != nil {
		n.tr.Span(n.siteTrack[p.Src], "chan", "serialize", start, end)
	}
	n.stats.DeliverAfter(n.eng, arrive-now, p)
}

// Instrument implements metrics.Instrumentable: per-channel utilization
// and backlog gauges, and one trace track per source site carrying
// serialization spans.
func (n *Network) Instrument(o metrics.Observer) {
	sites := n.p.Grid.Sites()
	if o.Reg != nil {
		for s := 0; s < sites; s++ {
			for d := 0; d < sites; d++ {
				ch := n.chans[s][d]
				if ch == nil {
					continue
				}
				name := fmt.Sprintf("ptp/chan/%d-%d", s, d)
				o.Reg.Gauge(name+"/util", func(now sim.Time) float64 {
					return ch.Utilization(now)
				})
				o.Reg.Gauge(name+"/backlog_ns", func(now sim.Time) float64 {
					return ch.Backlog(now).Nanoseconds()
				})
			}
		}
	}
	if o.Trace != nil {
		n.tr = o.Trace
		n.siteTrack = make([]metrics.TrackID, sites)
		for s := range n.siteTrack {
			n.siteTrack[s] = n.tr.Track(fmt.Sprintf("site %d", s))
		}
	}
}

// ChannelUtilization reports the utilization of the src→dst channel over the
// elapsed run time — useful in tests and the load-sweep example.
func (n *Network) ChannelUtilization(src, dst geometry.SiteID, elapsed sim.Time) float64 {
	if src == dst {
		return 0
	}
	return n.chans[src][dst].Utilization(elapsed)
}

// PathLossDB reports the memoized unswitched link budget of the src→dst
// channel's route (the network's per-pair photonic loss; its table-5 extra
// loss is zero, so this is the whole budget).
func (n *Network) PathLossDB(src, dst geometry.SiteID) photonics.DB {
	return n.paths.LossDB(src, dst)
}
