// Package limited implements the limited point-to-point network with
// electronic routing of paper §4.6.
//
// Each site has a dedicated 20 GB/s optical channel to each of its 7 row
// peers and 7 column peers. Traffic to any other site takes exactly one
// intermediate electronic hop: the packet travels optically to a site that
// is a peer of both endpoints, is converted to the electronic domain, passes
// through a single-cycle 7×7 router (charged 60 pJ/B), and is re-sent
// optically to the destination. Each site hosts two routers — one forwarding
// row→column and one column→row — so both L-shaped routes are available.
package limited

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// Network is the limited point-to-point fabric.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	stats *core.Stats
	// chans[src][dst] exists only for row/column peers.
	chans [][]*core.Channel
	// paths memoizes per-pair propagation delays and link budgets;
	// intraDelay and routerDelay are the fixed per-hop latencies.
	paths       *core.PathTable
	intraDelay  sim.Time
	routerDelay sim.Time

	// Optional trace instrumentation (see Instrument).
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
			if s == d {
				continue
			}
			a, b := geometry.SiteID(s), geometry.SiteID(d)
			if p.Grid.SameRow(a, b) || p.Grid.SameCol(a, b) {
				chans[s][d] = core.NewChannel(p.LimitedLinkGBs)
			}
		}
	}
	return &Network{
		eng:         eng,
		p:           p,
		stats:       stats,
		chans:       chans,
		paths:       core.NewPathTable(p),
		intraDelay:  p.Cycles(p.IntraSiteCycles),
		routerDelay: p.Cycles(p.RouterCycles),
	}
}

// Name implements core.Network.
func (n *Network) Name() string { return "Limited Point-to-Point" }

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.stats }

// IsPeer reports whether src and dst share a row or column (direct channel).
func (n *Network) IsPeer(src, dst geometry.SiteID) bool {
	return n.chans[src][dst] != nil
}

// Forwarders returns the two candidate forwarding sites for a non-peer pair:
// the row-first corner (src's row, dst's column, using the row→column
// router) and the column-first corner (dst's row, src's column).
func (n *Network) Forwarders(src, dst geometry.SiteID) (rowFirst, colFirst geometry.SiteID) {
	g := n.p.Grid
	return g.Site(g.Row(src), g.Col(dst)), g.Site(g.Row(dst), g.Col(src))
}

// Inject implements core.Network.
func (n *Network) Inject(p *core.Packet) {
	now := n.eng.Now()
	n.stats.StampInjection(p, now)
	switch {
	case p.Src == p.Dst:
		n.stats.DeliverAfter(n.eng, n.intraDelay, p)
	case n.IsPeer(p.Src, p.Dst):
		n.sendLeg(p, p.Src, p.Dst, true)
	default:
		// Pick the forwarder whose first leg currently has the smaller
		// backlog; ties go to the row-first route. This models the two
		// per-site routers without requiring an oracle.
		rf, cf := n.Forwarders(p.Src, p.Dst)
		f := rf
		if n.chans[p.Src][cf].Backlog(now) < n.chans[p.Src][rf].Backlog(now) {
			f = cf
		}
		n.sendVia(p, f)
	}
}

// routerArrive handles the first leg landing at the forwarding site (arg.A):
// O-E conversion, the electronic router hop, then the forwarding leg. Named
// pointer types over Network keep the per-packet chain closure-free.
type routerArrive Network

func (h *routerArrive) OnEvent(e *sim.Engine, arg sim.EventArg) {
	n := (*Network)(h)
	p := arg.Ptr.(*core.Packet)
	// O-E conversion + 7×7 router hop (1 cycle) + E-O conversion.
	p.Hops++
	n.stats.AddRouterBytes(p.Bytes)
	if n.tr != nil {
		at := e.Now()
		n.tr.Span(n.siteTrack[arg.A], "router", "route", at, at+n.routerDelay)
	}
	e.ScheduleCall(n.routerDelay, (*routerForward)(n), arg)
}

// routerForward handles the router hop completing: the packet re-enters the
// optical domain on the forwarder's direct channel to the destination.
type routerForward Network

func (h *routerForward) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	n := (*Network)(h)
	p := arg.Ptr.(*core.Packet)
	n.sendLeg(p, geometry.SiteID(arg.A), p.Dst, true)
}

// sendVia transmits p to forwarder f, applies the electronic hop, then
// forwards to the destination.
func (n *Network) sendVia(p *core.Packet, f geometry.SiteID) {
	now := n.eng.Now()
	start, end := n.chans[p.Src][f].Reserve(now, p.Bytes)
	arrive := end + n.paths.Delay(p.Src, f)
	n.stats.AddOpticalTraversal(p.Bytes)
	if n.tr != nil {
		n.tr.Span(n.siteTrack[p.Src], "chan", "serialize", start, end)
	}
	n.eng.ScheduleCall(arrive-now, (*routerArrive)(n), sim.EventArg{Ptr: p, A: uint64(f)})
}

// sendLeg transmits p over the direct channel from a to b and, if final,
// records delivery on arrival.
func (n *Network) sendLeg(p *core.Packet, a, b geometry.SiteID, final bool) {
	now := n.eng.Now()
	start, end := n.chans[a][b].Reserve(now, p.Bytes)
	arrive := end + n.paths.Delay(a, b)
	n.stats.AddOpticalTraversal(p.Bytes)
	if n.tr != nil {
		n.tr.Span(n.siteTrack[a], "chan", "serialize", start, end)
	}
	if final {
		n.stats.DeliverAfter(n.eng, arrive-now, p)
	}
}

// Instrument implements metrics.Instrumentable: utilization/backlog gauges
// for every row/column peer channel, plus per-site trace tracks with
// serialization and router-hop spans.
func (n *Network) Instrument(o metrics.Observer) {
	sites := n.p.Grid.Sites()
	if o.Reg != nil {
		for s := 0; s < sites; s++ {
			for d := 0; d < sites; d++ {
				ch := n.chans[s][d]
				if ch == nil {
					continue
				}
				name := fmt.Sprintf("limited/chan/%d-%d", s, d)
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
