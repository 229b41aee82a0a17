package fault

import (
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

// Network decorates any core.Network with the active fault set. With no
// fault active it is fully transparent: packets pass straight through to
// the wrapped network and every statistic is identical to an unwrapped run
// (pinned by the networks conformance suite). While faults are active it
// drops, corrupts, or delays packets according to the fault semantics:
//
//   - DarkLaser at the source site: the packet is lost (stamped as injected,
//     counted in Stats.Dropped, Deliver never fires).
//   - StuckSwitch on the (src, dst) path: likewise lost.
//   - RingDetune at the source site: with CorruptProb the packet is
//     corrupted and discarded at the receiver; survivors first serialize
//     through the site's derated modulator front-end — a core.Channel
//     slowed with Derate — and enter the wrapped network late.
//
// Intra-site traffic (Src == Dst) uses the electronic loop-back and is
// immune to photonic faults.
type Network struct {
	eng   *sim.Engine
	p     core.Params
	inner core.Network
	// rng drives corruption draws; derived deterministically from the
	// wrap seed, and consulted only for packets sourced at a detuned
	// site, so zero-fault runs draw nothing.
	rng *sim.RNG

	// active counts all currently-active faults; the zero check is the
	// transparent fast path.
	active int

	// Per-site fault state. Counts (not booleans) let overlapping events
	// of the same class nest correctly.
	dark    []int
	detunes []detuneState
	stuck   map[pathKey]int

	// frontend[s] is the site's modulator front-end channel at nominal
	// site bandwidth. It only serializes packets while the site is
	// detuned; Derate is the mid-run degradation hook. A dark site's
	// packets are dropped before its front-end is consulted.
	frontend []*core.Channel

	// drops counts lost packets by fault class.
	drops [NumClasses]uint64
}

type detuneState struct {
	count   int
	corrupt float64
}

type pathKey struct{ src, dst geometry.SiteID }

// Wrap decorates inner with fault handling. The seed feeds the corruption
// stream; runs that never activate a RingDetune never consult it.
func Wrap(eng *sim.Engine, p core.Params, inner core.Network, seed int64) *Network {
	sites := p.Grid.Sites()
	fe := make([]*core.Channel, sites)
	for s := range fe {
		fe[s] = core.NewChannel(p.SiteBandwidthGBs)
	}
	return &Network{
		eng:      eng,
		p:        p,
		inner:    inner,
		rng:      sim.NewRNG(sim.DeriveSeed(seed, sim.StringLabel("fault-corruption"))),
		dark:     make([]int, sites),
		detunes:  make([]detuneState, sites),
		stuck:    map[pathKey]int{},
		frontend: fe,
	}
}

// Name implements core.Network; the decorator is transparent.
func (n *Network) Name() string { return n.inner.Name() }

// Stats implements core.Network.
func (n *Network) Stats() *core.Stats { return n.inner.Stats() }

// Inject implements core.Network.
func (n *Network) Inject(p *core.Packet) {
	if n.active == 0 {
		n.inner.Inject(p)
		return
	}
	if p.Src != p.Dst {
		src := int(p.Src)
		switch {
		case n.dark[src] > 0:
			n.drop(p, DarkLaser)
			return
		case n.stuck[pathKey{p.Src, p.Dst}] > 0:
			n.drop(p, StuckSwitch)
			return
		}
		if d := n.detunes[src]; d.count > 0 {
			if n.rng.Bool(d.corrupt) {
				// Corrupted during modulation; the receiver's CRC discards
				// it. The recovery layers see a plain loss.
				n.drop(p, RingDetune)
				return
			}
			now := n.eng.Now()
			_, end := n.frontend[src].Reserve(now, p.Bytes)
			if end > now {
				n.eng.ScheduleCall(end-now, (*delayedInject)(n), sim.EventArg{Ptr: p})
				return
			}
		}
	}
	n.inner.Inject(p)
}

// delayedInject re-injects a packet into the wrapped network after it
// serialized through a detuned site's front-end — the closure-free form of
// the delayed-entry event.
type delayedInject Network

func (h *delayedInject) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	n := (*Network)(h)
	n.inner.Inject(arg.Ptr.(*core.Packet))
}

func (n *Network) drop(p *core.Packet, c Class) {
	st := n.inner.Stats()
	st.StampInjection(p, n.eng.Now())
	st.AddDrop()
	n.drops[c]++
}

// Drops reports packets lost to the given fault class.
func (n *Network) Drops(c Class) uint64 { return n.drops[c] }

// TotalDrops reports all packets lost to faults.
func (n *Network) TotalDrops() uint64 {
	var t uint64
	for _, d := range n.drops {
		t += d
	}
	return t
}

// ActiveFaults reports the number of currently-active fault events.
func (n *Network) ActiveFaults() int { return n.active }

// FailLaser darkens a site's laser source until RepairLaser.
func (n *Network) FailLaser(s geometry.SiteID) {
	n.dark[s]++
	n.active++
}

// RepairLaser undoes one FailLaser.
func (n *Network) RepairLaser(s geometry.SiteID) {
	n.dark[s]--
	n.active--
}

// Detune derates a site's modulator rings by the given serialization
// factor and corrupts packets with probability corruptProb, until Retune.
// Overlapping detunes keep the most severe derating.
func (n *Network) Detune(s geometry.SiteID, derate, corruptProb float64) {
	d := &n.detunes[s]
	d.count++
	if corruptProb > d.corrupt {
		d.corrupt = corruptProb
	}
	if derate > n.frontend[s].DerateFactor() {
		n.frontend[s].Derate(derate)
	}
	n.active++
}

// Retune undoes one Detune; the site returns to nominal when the last
// overlapping detune clears.
func (n *Network) Retune(s geometry.SiteID) {
	d := &n.detunes[s]
	d.count--
	if d.count == 0 {
		d.corrupt = 0
		n.frontend[s].Derate(1)
	}
	n.active--
}

// StickPath marks the src→dst path unusable (stuck broadband switch)
// until RepairPath.
func (n *Network) StickPath(src, dst geometry.SiteID) {
	n.stuck[pathKey{src, dst}]++
	n.active++
}

// RepairPath undoes one StickPath.
func (n *Network) RepairPath(src, dst geometry.SiteID) {
	k := pathKey{src, dst}
	n.stuck[k]--
	if n.stuck[k] == 0 {
		delete(n.stuck, k)
	}
	n.active--
}

// apply activates one planned event; clear reverses it at repair time.
func (n *Network) apply(ev Event) {
	switch ev.Class {
	case DarkLaser:
		n.FailLaser(ev.Site)
	case RingDetune:
		n.Detune(ev.Site, ev.Derate, ev.CorruptProb)
	case StuckSwitch:
		n.StickPath(ev.Site, ev.Peer)
	}
}

func (n *Network) clear(ev Event) {
	switch ev.Class {
	case DarkLaser:
		n.RepairLaser(ev.Site)
	case RingDetune:
		n.Retune(ev.Site)
	case StuckSwitch:
		n.RepairPath(ev.Site, ev.Peer)
	}
}
