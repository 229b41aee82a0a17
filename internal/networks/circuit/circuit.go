// Package circuit implements the circuit-switched optical torus of paper
// §4.5 — the design of Petracca et al. (HOTI 2008) adapted to the macrochip.
//
// Data rides end-to-end optical circuits through a non-blocking torus of 4×4
// optical switches. Before each transfer, a path-setup flit travels hop by
// hop on a low-bandwidth optical control network, configuring the switch at
// every hop; an acknowledgment returns over the same path, and only then
// does data flow. The paper's adaptation replaces the original electronic
// setup network with an optical one, because an active substrate with long
// electrical wires would defeat the macrochip's passive-routing-layer
// premise.
//
// The torus is non-blocking, so the model charges no switch-contention
// inside the fabric; the costs are the per-hop setup latency, the limited
// number of concurrent circuits a site gateway can manage, and the
// destination's finite landing bandwidth. For 64-byte cache-line transfers
// the setup round trip dwarfs the 3.2 ns data time — the reason this network
// sustains only a few percent of peak (figure 6).
package circuit

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// Network is the circuit-switched torus fabric.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	stats *core.Stats

	// slots is the number of free circuit engines per source gateway.
	slots []int
	// pending is the per-source FIFO of packets waiting for a circuit
	// engine.
	pending []core.PacketQueue
	// landing models the destination's aggregate receive bandwidth
	// (CircuitSlotsPerSite... of the 16 inbound waveguides; see params).
	landing []*core.Channel

	ctrlHop sim.Time

	// Hot-path precomputation: intra-site loop-back latency, the circuit
	// data ps/byte factor (1e3/CircuitDataGBs — exactly representable for
	// the shipped bandwidths), the torus hop count per ordered site pair
	// (flat row-major), and the data propagation delay per hop count.
	intraDelay    sim.Time
	dataPsPerByte float64
	torusHops     []int
	hopProp       []sim.Time

	// Optional trace instrumentation (see Instrument).
	tr        *metrics.Tracer
	siteTrack []metrics.TrackID
	// setups counts path setups when a registry is attached.
	setups *metrics.Counter
}

// New constructs the network.
func New(eng *sim.Engine, p core.Params, stats *core.Stats) *Network {
	sites := p.Grid.Sites()
	n := &Network{
		eng:     eng,
		p:       p,
		stats:   stats,
		slots:   make([]int, sites),
		pending: make([]core.PacketQueue, sites),
		landing: make([]*core.Channel, sites),
	}
	for s := 0; s < sites; s++ {
		n.slots[s] = p.CircuitSlotsPerSite
		// 16 inbound waveguides × 20 GB/s = 320 GB/s landing capacity.
		n.landing[s] = core.NewChannel(float64(p.TxPerSite/p.WavelengthsPerWaveguide) * p.CircuitDataGBs)
	}
	n.ctrlHop = n.controlHopLatency()
	n.intraDelay = p.Cycles(p.IntraSiteCycles)
	n.dataPsPerByte = 1e3 / p.CircuitDataGBs
	n.torusHops = make([]int, sites*sites)
	maxHops := 0
	for a := 0; a < sites; a++ {
		for b := 0; b < sites; b++ {
			h := p.Grid.TorusHops(geometry.SiteID(a), geometry.SiteID(b))
			n.torusHops[a*sites+b] = h
			if h > maxHops {
				maxHops = h
			}
		}
	}
	n.hopProp = make([]sim.Time, maxHops+1)
	for h := 0; h <= maxHops; h++ {
		n.hopProp[h] = sim.FromNanoseconds(float64(h) * p.Grid.TorusHopCM() * p.Comp.PropagationNSPerCM)
	}
	return n
}

// controlHopLatency is the per-hop cost of a setup or ack flit: serialize
// the flit on the control wavelength, process it in the path-setup router,
// and propagate one torus hop.
func (n *Network) controlHopLatency() sim.Time {
	ser := sim.Time(float64(n.p.CircuitCtrlFlitBytes)*1e3/n.p.CircuitCtrlGBs + 0.5)
	router := n.p.Cycles(n.p.CircuitRouterCycles)
	prop := sim.FromNanoseconds(n.p.Grid.TorusHopCM() * n.p.Comp.PropagationNSPerCM)
	return ser + router + prop
}

// CtrlHopLatency exposes the per-hop control latency for tests and the
// ablation benches.
func (n *Network) CtrlHopLatency() sim.Time { return n.ctrlHop }

// Name implements core.Network.
func (n *Network) Name() string { return "Circuit Switched" }

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.stats }

// Inject implements core.Network.
func (n *Network) Inject(p *core.Packet) {
	now := n.eng.Now()
	n.stats.StampInjection(p, now)
	if p.Src == p.Dst {
		n.stats.DeliverAfter(n.eng, n.intraDelay, p)
		return
	}
	s := int(p.Src)
	if n.slots[s] > 0 {
		n.slots[s]--
		n.startCircuit(p)
	} else {
		n.pending[s].Push(p)
	}
}

// startCircuit runs the full setup → data → release sequence for p.
func (n *Network) startCircuit(p *core.Packet) {
	now := n.eng.Now()
	hops := n.torusHops[int(p.Src)*len(n.slots)+int(p.Dst)]
	// Setup flit out plus acknowledgment back; each hop is one control
	// message (counted for the arbitration/control energy bookkeeping).
	setup := sim.Time(2*hops) * n.ctrlHop
	for i := 0; i < 2*hops; i++ {
		n.stats.AddArbMessage()
		n.stats.AddOpticalTraversal(n.p.CircuitCtrlFlitBytes)
	}
	dataStart := now + setup
	ser := sim.Time(float64(p.Bytes)*n.dataPsPerByte + 0.5)
	// The landing channel bounds the destination's aggregate receive rate;
	// under hotspot traffic circuits queue on the destination's inbound
	// waveguides.
	_, landEnd := n.landing[p.Dst].Reserve(dataStart, p.Bytes)
	dataEnd := landEnd
	if min := dataStart + ser; dataEnd < min {
		dataEnd = min
	}
	prop := n.hopProp[hops]
	n.stats.AddOpticalTraversal(p.Bytes)
	n.setups.Inc()
	if n.tr != nil {
		tk := n.siteTrack[p.Src]
		n.tr.Span(tk, "arb", "setup", now, dataStart)
		n.tr.Span(tk, "chan", "data", dataStart, dataEnd)
	}
	// DeliverAfter hands p over, and may run its handler before returning:
	// read the source first.
	src := p.Src
	n.stats.DeliverAfter(n.eng, dataEnd+prop-now, p)
	// The circuit engine frees once the data has left the source; the
	// teardown flits chase the tail of the data.
	n.eng.ScheduleCall(dataEnd-now, (*releaseH)(n), sim.EventArg{A: uint64(src)})
}

// releaseH frees a circuit engine at the source gateway in arg.A — the
// closure-free form of the slot-release event.
type releaseH Network

func (h *releaseH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	(*Network)(h).releaseSlot(int(arg.A))
}

// releaseSlot frees a circuit engine and starts the next pending transfer.
func (n *Network) releaseSlot(s int) {
	if n.pending[s].Len() > 0 {
		n.startCircuit(n.pending[s].Pop())
		return
	}
	n.slots[s]++
}

// PendingAt reports the queue length at a source gateway (for tests).
func (n *Network) PendingAt(s int) int { return n.pending[s].Len() }

// Instrument implements metrics.Instrumentable: per-site landing-channel
// utilization/backlog, free circuit engines and pending-transfer gauges, a
// path-setup counter, and per-site trace tracks with setup/data spans.
func (n *Network) Instrument(o metrics.Observer) {
	sites := n.p.Grid.Sites()
	if o.Reg != nil {
		for s := 0; s < sites; s++ {
			s := s
			ch := n.landing[s]
			name := fmt.Sprintf("circuit/site/%d", s)
			o.Reg.Gauge(name+"/landing_util", func(now sim.Time) float64 {
				return ch.Utilization(now)
			})
			o.Reg.Gauge(name+"/landing_backlog_ns", func(now sim.Time) float64 {
				return ch.Backlog(now).Nanoseconds()
			})
			o.Reg.Gauge(name+"/slots_free", func(sim.Time) float64 {
				return float64(n.slots[s])
			})
			o.Reg.Gauge(name+"/pending", func(sim.Time) float64 {
				return float64(n.pending[s].Len())
			})
		}
		n.setups = o.Reg.Counter("circuit/path_setups")
	}
	if o.Trace != nil {
		n.tr = o.Trace
		n.siteTrack = make([]metrics.TrackID, sites)
		for s := range n.siteTrack {
			n.siteTrack[s] = n.tr.Track(fmt.Sprintf("site %d", s))
		}
	}
}
