// Package twophase implements the two-phase arbitration-based switched
// optical network of paper §4.3 — one of the paper's two previously
// unpublished designs.
//
// Topology: every destination site owns one shared 40 GB/s (16-bit wide)
// optical data channel per macrochip row — 512 shared channels in all. The
// eight sites of a row form the arbitration domain of that row's channels.
// A destination's input-select switch connects it to exactly one row channel
// at a time, so a destination drains at most 40 GB/s. On the sending side a
// site drives all eight channels of a column through a single tree of
// broadband switches (the "T" trees of figure 4), so the base design permits
// one concurrent transmission per column per site; the ALT design doubles
// the trees (and the transmitters and laser power) to relax exactly this
// bottleneck.
//
// Arbitration is fully distributed and mesochronous: requests are posted on
// a per-row request waveguide that every domain site snoops, every site runs
// the same round-robin slot assignment, and the destination's column manager
// broadcasts switch-setup notifications down a column waveguide. The model
// collapses this pipeline into a fixed arbitration lead time (request
// propagation + slot alignment + notification propagation + switch
// actuation) followed by a slotted reservation on the destination's channel.
// A granted slot whose sender's switch tree is still busy with an
// overlapping transmission is *wasted* — the channel time is consumed but no
// data moves and the packet must re-arbitrate. That waste is the paper's
// explanation for the network's low sustained bandwidth on all-to-all
// traffic and is what the ALT variant alleviates.
package twophase

import (
	"fmt"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// colQueue is the per-(source, column) switch-tree pipeline: a source may
// have at most TwoPhaseTreesPerColumn packets in flight toward one column —
// one per switch tree — which is precisely the contention the paper calls
// out ("contention when a site has multiple packets to send to a single
// column", §4.3) and the bottleneck the ALT design doubles trees to relax.
type colQueue struct {
	queue    core.PacketQueue
	inFlight int
}

// Network is the two-phase arbitrated fabric. Set Params.
// TwoPhaseTreesPerColumn to 2 for the ALT design.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	stats *core.Stats
	alt   bool

	// dstChan[d] is destination d's 40 GB/s slotted delivery channel (the
	// combination of its row channels and its input-select switch).
	dstChan []*core.Channel
	// lastSender[d] is the source of the most recent slot reserved on d's
	// channel. When consecutive slots come from different senders the
	// destination's input-select switch (and the senders' trees) must
	// re-actuate, costing TwoPhaseSwitchSetupPS of dead channel time — the
	// dominant efficiency loss on all-to-all traffic.
	lastSender []geometry.SiteID
	// trees[src][col][i] is the time switch tree i of src for column col is
	// busy until.
	trees [][][]sim.Time
	cols  [][]*colQueue

	// arbLead is the fixed phase-1+phase-2 pipeline latency.
	arbLead sim.Time
	// paths memoizes per-pair propagation delays; intraDelay is the
	// single-cycle loop-back latency.
	paths      *core.PathTable
	intraDelay sim.Time

	// WastedSlots counts grants lost to switch-tree contention.
	WastedSlots uint64

	// Optional trace instrumentation (see Instrument).
	tr        *metrics.Tracer
	siteTrack []metrics.TrackID
	// wasted mirrors WastedSlots into the registry when one is attached.
	wasted *metrics.Counter
}

// New constructs the base network; NewALT the doubled-tree variant.
func New(eng *sim.Engine, p core.Params, stats *core.Stats) *Network {
	return build(eng, p, stats, false)
}

// NewALT constructs the "2-phase Arb ALT" design: twice the switch trees
// and transmitters per column (paper §4.3, §6.2).
func NewALT(eng *sim.Engine, p core.Params, stats *core.Stats) *Network {
	p.TwoPhaseTreesPerColumn *= 2
	return build(eng, p, stats, true)
}

func build(eng *sim.Engine, p core.Params, stats *core.Stats, alt bool) *Network {
	sites := p.Grid.Sites()
	n := &Network{eng: eng, p: p, stats: stats, alt: alt}
	n.dstChan = make([]*core.Channel, sites)
	n.lastSender = make([]geometry.SiteID, sites)
	for d := range n.lastSender {
		n.lastSender[d] = -1
	}
	n.cols = make([][]*colQueue, sites)
	n.trees = make([][][]sim.Time, sites)
	for s := 0; s < sites; s++ {
		n.dstChan[s] = core.NewChannel(p.TwoPhaseChannelGBs)
		n.cols[s] = make([]*colQueue, p.Grid.N)
		n.trees[s] = make([][]sim.Time, p.Grid.N)
		for c := 0; c < p.Grid.N; c++ {
			n.cols[s][c] = &colQueue{}
			n.trees[s][c] = make([]sim.Time, p.TwoPhaseTreesPerColumn)
		}
	}
	n.arbLead = n.arbitrationLead()
	n.paths = core.NewPathTable(p)
	n.intraDelay = p.Cycles(p.IntraSiteCycles)
	return n
}

// arbitrationLead models the two phases as a fixed pipeline delay: the
// request crosses the row (worst-case row span), waits for slot alignment,
// the column manager's notification crosses the column, and the broadband
// switches actuate.
func (n *Network) arbitrationLead() sim.Time {
	span := float64(n.p.Grid.N-1) * n.p.Grid.PitchCM * n.p.Comp.PropagationNSPerCM
	prop := sim.FromNanoseconds(span)
	return prop + n.p.ArbSlotPS + prop + n.p.TwoPhaseSwitchSetupPS
}

// ArbitrationLead exposes the pipeline latency for tests.
func (n *Network) ArbitrationLead() sim.Time { return n.arbLead }

// Name implements core.Network.
func (n *Network) Name() string {
	if n.alt {
		return "2-Phase Arb. ALT"
	}
	return "2-Phase Arb."
}

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.stats }

// slotTime rounds a payload up to whole arbitration data slots (the paper's
// variable-size, basic-slot-multiple data slots).
func (n *Network) slotTime(bytes int) sim.Time {
	ser := n.dstChan[0].SerializationTime(bytes)
	slot := n.p.ArbSlotPS
	slots := (ser + slot - 1) / slot
	return slots * slot
}

// Inject implements core.Network.
func (n *Network) Inject(p *core.Packet) {
	now := n.eng.Now()
	n.stats.StampInjection(p, now)
	if p.Src == p.Dst {
		n.stats.DeliverAfter(n.eng, n.intraDelay, p)
		return
	}
	cq := n.cols[p.Src][n.p.Grid.Col(p.Dst)]
	cq.queue.Push(p)
	n.issue(p.Src, n.p.Grid.Col(p.Dst))
}

// issue posts arbitration requests while the source has a free switch tree
// for the column.
func (n *Network) issue(src geometry.SiteID, col int) {
	cq := n.cols[src][col]
	for cq.inFlight < len(n.trees[src][col]) && cq.queue.Len() > 0 {
		cq.inFlight++
		n.request(cq.queue.Pop())
	}
}

// request runs phase 1 + phase 2 for p: after the arbitration lead time the
// distributed round-robin grants the packet a slot on the destination
// channel (modeled as a FIFO reservation, which serves requesters in
// request order exactly as a round-robin does under backlog).
func (n *Network) request(p *core.Packet) {
	now := n.eng.Now()
	n.stats.AddArbMessage() // request broadcast on the row waveguide
	n.stats.AddArbMessage() // switch notification on the column waveguide
	var gap sim.Time
	if n.lastSender[p.Dst] != p.Src {
		gap = n.p.TwoPhaseSwitchSetupPS
	}
	n.lastSender[p.Dst] = p.Src
	start, _ := n.dstChan[p.Dst].ReserveDuration(now+n.arbLead, gap+n.slotTime(p.Bytes))
	dataStart := start + gap
	if n.tr != nil {
		n.tr.Span(n.siteTrack[p.Src], "arb", "arbitrate", now, dataStart)
	}
	n.eng.ScheduleCall(dataStart-now, (*grantH)(n), sim.EventArg{Ptr: p, A: uint64(dataStart)})
}

// grantH fires slotGranted for the packet in arg.Ptr at the slot start time
// in arg.A; deliverH completes the transfer — both are named pointer types
// over Network so the per-packet arbitration chain allocates no closures.
type grantH Network

func (h *grantH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	(*Network)(h).slotGranted(arg.Ptr.(*core.Packet), sim.Time(arg.A))
}

type deliverH Network

func (h *deliverH) OnEvent(e *sim.Engine, arg sim.EventArg) {
	n := (*Network)(h)
	p := arg.Ptr.(*core.Packet)
	// RecordDelivery hands p to its handler, which may reuse it at once:
	// read everything the release needs first.
	src, col := p.Src, n.p.Grid.Col(p.Dst)
	n.cols[src][col].inFlight--
	n.stats.RecordDelivery(p, e.Now())
	n.issue(src, col)
}

// slotGranted fires at the packet's data slot. If one of the sender's
// switch trees for the destination column is free, data flows; otherwise the
// slot is wasted and the packet re-arbitrates.
func (n *Network) slotGranted(p *core.Packet, start sim.Time) {
	col := n.p.Grid.Col(p.Dst)
	slotLen := n.slotTime(p.Bytes)
	trees := n.trees[p.Src][col]
	for i := range trees {
		if trees[i] <= start {
			trees[i] = start + slotLen
			arrive := start + slotLen + n.paths.Delay(p.Src, p.Dst)
			n.stats.AddOpticalTraversal(p.Bytes)
			if n.tr != nil {
				n.tr.Span(n.siteTrack[p.Src], "chan", "data", start, start+slotLen)
			}
			n.eng.ScheduleCall(arrive-n.eng.Now(), (*deliverH)(n), sim.EventArg{Ptr: p})
			return
		}
	}
	// Tree contention: the slot is lost (the channel reservation already
	// consumed the bandwidth) and the request is replayed.
	n.WastedSlots++
	n.wasted.Inc()
	if n.tr != nil {
		n.tr.Instant(n.siteTrack[p.Src], "arb", "wasted-slot", start)
	}
	n.request(p)
}

// Instrument implements metrics.Instrumentable: per-destination delivery-
// channel utilization/backlog gauges, per-source queued and in-flight tree
// gauges, a wasted-slot counter, and per-site trace tracks carrying
// arbitration/data spans and wasted-slot instants.
func (n *Network) Instrument(o metrics.Observer) {
	sites := n.p.Grid.Sites()
	if o.Reg != nil {
		for d := 0; d < sites; d++ {
			d := d
			ch := n.dstChan[d]
			name := fmt.Sprintf("twophase/dst/%d", d)
			o.Reg.Gauge(name+"/util", func(now sim.Time) float64 {
				return ch.Utilization(now)
			})
			o.Reg.Gauge(name+"/backlog_ns", func(now sim.Time) float64 {
				return ch.Backlog(now).Nanoseconds()
			})
		}
		for s := 0; s < sites; s++ {
			s := s
			o.Reg.Gauge(fmt.Sprintf("twophase/src/%d/queued", s), func(sim.Time) float64 {
				total := 0
				for _, cq := range n.cols[s] {
					total += cq.queue.Len()
				}
				return float64(total)
			})
			o.Reg.Gauge(fmt.Sprintf("twophase/src/%d/trees_busy", s), func(sim.Time) float64 {
				total := 0
				for _, cq := range n.cols[s] {
					total += cq.inFlight
				}
				return float64(total)
			})
		}
		n.wasted = o.Reg.Counter("twophase/wasted_slots")
	}
	if o.Trace != nil {
		n.tr = o.Trace
		n.siteTrack = make([]metrics.TrackID, sites)
		for s := range n.siteTrack {
			n.siteTrack[s] = n.tr.Track(fmt.Sprintf("site %d", s))
		}
	}
}
