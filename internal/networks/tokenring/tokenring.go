// Package tokenring implements the token-ring-arbitrated optical crossbar —
// the Corona architecture (Vantrease et al., ISCA 2008) adapted to the
// macrochip as described in paper §4.4.
//
// Every destination site owns a "home" waveguide bundle that loops past all
// sites in serpentine ring order; any site may modulate onto the bundle, but
// only after acquiring the destination's token, which circulates on a token
// waveguide along the same ring. The macrochip is 10× Corona's die size, so
// the token round trip scales from 8 to 80 core cycles — the latency that
// cripples this design on one-to-one patterns (figure 6).
//
// The bundle moves a 64-byte packet in a single 5 GHz cycle (320 GB/s), and
// a site transmits at most TokenMaxPacketsPerGrab packets per acquisition
// before re-injecting the token.
//
// The adaptation also cuts the WDM factor from Corona's 64 to 2 so that
// pass-by off-resonance modulator loss stays at 12.8 dB (19×) instead of
// 409.6 dB — see photonics.TokenRingLoss.
package tokenring

import (
	"fmt"
	"math/bits"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/metrics"
	"macrochip/internal/sim"
)

// token tracks the circulating arbitration token for one destination.
type token struct {
	// freeTime/freePos: when and where (ring position) the token was last
	// released; between grants it circulates forward at hop pace.
	freeTime sim.Time
	freePos  int
	// granted marks a scheduled pending grant.
	granted   bool
	grantPos  int
	grantTime sim.Time
	// epoch invalidates superseded grant events.
	epoch uint64
}

// Network is the token-ring crossbar fabric.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	stats *core.Stats

	ringOrder []geometry.SiteID // ring position -> site
	ringPos   []int             // site -> ring position
	hop       sim.Time          // token time per ring position

	// Hot-path precomputation: the intra-site loop-back latency, the
	// bundle's ps/byte factor (1e3/TokenBundleGBs — exactly representable
	// for the shipped bandwidths, so per-packet multiply matches the old
	// divide bit-for-bit), the one-cycle minimum slot, and the data
	// propagation delay indexed by ring distance.
	intraDelay      sim.Time
	bundlePsPerByte float64
	minSlot         sim.Time
	ringDelay       []sim.Time

	// queues[dst][ringPos(src)] is the per-source FIFO of packets bound for
	// dst, and busy[dst] has bit w set while queues[dst][w] is non-empty.
	queues [][]core.PacketQueue
	busy   [][]uint64
	tokens []*token

	// Optional trace instrumentation (see Instrument).
	tr        *metrics.Tracer
	siteTrack []metrics.TrackID
	// grants counts token acquisitions when a registry is attached.
	grants *metrics.Counter
}

// New constructs the network.
func New(eng *sim.Engine, p core.Params, stats *core.Stats) *Network {
	sites := p.Grid.Sites()
	n := &Network{
		eng:             eng,
		p:               p,
		stats:           stats,
		ringOrder:       p.Grid.RingPositions(),
		ringPos:         p.Grid.RingIndex(),
		hop:             p.Cycles(p.TokenRoundTripCycles) / sim.Time(sites),
		intraDelay:      p.Cycles(p.IntraSiteCycles),
		bundlePsPerByte: 1e3 / p.TokenBundleGBs,
		minSlot:         p.Cycles(1),
		ringDelay:       make([]sim.Time, sites),
		queues:          make([][]core.PacketQueue, sites),
		busy:            make([][]uint64, sites),
		tokens:          make([]*token, sites),
	}
	for k := 0; k < sites; k++ {
		ns := float64(k) * p.Grid.PitchCM * p.Comp.PropagationNSPerCM
		n.ringDelay[k] = sim.FromNanoseconds(ns)
	}
	for d := 0; d < sites; d++ {
		n.queues[d] = make([]core.PacketQueue, sites)
		n.busy[d] = make([]uint64, (sites+63)/64)
		// The token starts parked at its home site.
		n.tokens[d] = &token{freeTime: 0, freePos: n.ringPos[d]}
	}
	return n
}

// Name implements core.Network.
func (n *Network) Name() string { return "Token Ring" }

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.stats }

// Inject implements core.Network.
func (n *Network) Inject(p *core.Packet) {
	now := n.eng.Now()
	n.stats.StampInjection(p, now)
	if p.Src == p.Dst {
		n.eng.ScheduleCall(n.intraDelay, n.stats, sim.EventArg{Ptr: p})
		return
	}
	d := int(p.Dst)
	pos := n.ringPos[p.Src]
	q := &n.queues[d][pos]
	if q.Len() == 0 {
		n.busy[d][pos/64] |= 1 << (pos % 64)
	}
	q.Push(p)
	n.consider(d, pos)
}

// tokenArrival returns the first time ≥ now that destination d's circulating
// token reaches ring position w, given it was released at (freeTime,
// freePos). A site that just released must wait a full circulation to
// re-acquire.
func (n *Network) tokenArrival(tk *token, w int, now sim.Time) sim.Time {
	sites := len(n.ringOrder)
	k := n.p.Grid.RingDist(tk.freePos, w)
	if k == 0 {
		k = sites
	}
	t := tk.freeTime + sim.Time(k)*n.hop
	if t < now {
		loop := sim.Time(sites) * n.hop
		missed := (now - t + loop - 1) / loop
		t += missed * loop
	}
	return t
}

// consider re-evaluates whether the waiter at ring position w should be the
// token's next grant target for destination d.
func (n *Network) consider(d, w int) {
	tk := n.tokens[d]
	now := n.eng.Now()
	t := n.tokenArrival(tk, w, now)
	if tk.granted && t >= tk.grantTime {
		return // current target intercepts the token first
	}
	tk.granted = true
	tk.grantPos = w
	tk.grantTime = t
	tk.epoch++
	n.eng.ScheduleCall(t-now, (*grantH)(n), sim.EventArg{A: uint64(d), B: tk.epoch})
}

// grantH dispatches a pending token grant: destination index in arg.A, the
// grant epoch in arg.B. A named pointer type over Network keeps the
// arbitration hot path closure-free.
type grantH Network

func (h *grantH) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	(*Network)(h).grant(int(arg.A), arg.B)
}

// grant fires when the token reaches its target: the site transmits one
// packet on the destination bundle and re-injects the token.
func (n *Network) grant(d int, epoch uint64) {
	tk := n.tokens[d]
	if !tk.granted || tk.epoch != epoch {
		return // superseded by a closer waiter
	}
	now := n.eng.Now()
	w := tk.grantPos
	q := &n.queues[d][w]
	if q.Len() == 0 {
		// Defensive: should not happen — the busy mask keeps targets
		// non-empty.
		tk.granted = false
		n.release(d, w, now)
		return
	}
	burst := n.p.TokenMaxPacketsPerGrab
	if burst < 1 {
		burst = 1
	}
	if burst > q.Len() {
		burst = q.Len()
	}
	hold := sim.Time(0)
	for i := 0; i < burst; i++ {
		p := q.Pop()
		ser := sim.Time(float64(p.Bytes)*n.bundlePsPerByte + 0.5)
		if ser < n.minSlot {
			ser = n.minSlot
		}
		launch := now + hold
		hold += ser
		arrive := launch + ser + n.ringPropDelay(w, n.ringPos[p.Dst])
		n.stats.AddOpticalTraversal(p.Bytes)
		if n.tr != nil {
			src := n.siteTrack[n.ringOrder[w]]
			n.tr.Span(src, "arb", "token-wait", p.Born, launch)
			n.tr.Span(src, "chan", "tx", launch, launch+ser)
		}
		n.eng.ScheduleCall(arrive-now, n.stats, sim.EventArg{Ptr: p})
	}
	if q.Len() == 0 {
		n.busy[d][w/64] &^= 1 << (w % 64)
	}
	n.stats.AddArbMessage() // one token acquisition+release
	n.grants.Inc()
	tk.granted = false
	n.release(d, w, now+hold)
}

// release re-injects the token at ring position pos at time t and selects
// the nearest downstream waiter, if any.
func (n *Network) release(d, pos int, t sim.Time) {
	tk := n.tokens[d]
	tk.freeTime = t
	tk.freePos = pos
	if w := nextWaiter(n.busy[d], pos); w >= 0 {
		n.consider(d, w)
	}
}

// nextWaiter returns the first set bit of busy cyclically after ring
// position pos, with pos itself last, or -1 if no bit is set. Because
// RingDist(pos, w) = (w−pos) mod sites, that is the waiter nearest
// downstream of pos, with pos itself a full circulation away.
func nextWaiter(busy []uint64, pos int) int {
	if w := firstSet(busy, pos+1); w >= 0 {
		return w
	}
	return firstSet(busy, 0)
}

// firstSet returns the lowest set bit of busy at or above from, or -1.
func firstSet(busy []uint64, from int) int {
	for i := from / 64; i < len(busy); i++ {
		m := busy[i]
		if i == from/64 {
			m = m >> (from % 64) << (from % 64)
		}
		if m != 0 {
			return 64*i + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// ringPropDelay is the data propagation time from ring position a to b along
// the destination bundle (data travels the same serpentine route as the
// token but at light speed, one site pitch per position). The per-distance
// delays are memoized in ringDelay at construction.
func (n *Network) ringPropDelay(a, b int) sim.Time {
	return n.ringDelay[n.p.Grid.RingDist(a, b)]
}

// Instrument implements metrics.Instrumentable: per-destination queue-depth
// and waiting-source gauges, a token-grant counter, and per-site trace
// tracks carrying token-wait and transmit spans.
func (n *Network) Instrument(o metrics.Observer) {
	sites := len(n.ringOrder)
	if o.Reg != nil {
		for d := 0; d < sites; d++ {
			d := d
			o.Reg.Gauge(fmt.Sprintf("tokenring/dst/%d/queued", d), func(sim.Time) float64 {
				total := 0
				for w := range n.queues[d] {
					total += n.queues[d][w].Len()
				}
				return float64(total)
			})
			o.Reg.Gauge(fmt.Sprintf("tokenring/dst/%d/waiting_srcs", d), func(sim.Time) float64 {
				waiting := 0
				for _, m := range n.busy[d] {
					waiting += bits.OnesCount64(m)
				}
				return float64(waiting)
			})
		}
		n.grants = o.Reg.Counter("tokenring/token_grants")
	}
	if o.Trace != nil {
		n.tr = o.Trace
		n.siteTrack = make([]metrics.TrackID, sites)
		for s := range n.siteTrack {
			n.siteTrack[s] = n.tr.Track(fmt.Sprintf("site %d", s))
		}
	}
}

// QueuedFor reports the number of packets waiting at src for dst — used by
// tests.
func (n *Network) QueuedFor(src, dst geometry.SiteID) int {
	return n.queues[dst][n.ringPos[src]].Len()
}
