package networks_test

import (
	"fmt"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/geometry"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// deliverFn adapts a test closure to core.DeliverHandler.
type deliverFn func(*core.Packet, sim.Time)

func (f deliverFn) OnDeliver(p *core.Packet, at sim.Time) { f(p, at) }

// The conformance suite checks invariants every network model must satisfy,
// whatever its arbitration scheme.

func forEachKind(t *testing.T, f func(t *testing.T, kind networks.Kind)) {
	for _, k := range networks.Six() {
		k := k
		t.Run(string(k), func(t *testing.T) { f(t, k) })
	}
}

// TestConformanceDelivery: at a load far below every network's saturation,
// every injected packet is delivered exactly once after drain.
func TestConformanceDelivery(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		gen := &traffic.OpenLoop{
			Eng: eng, Params: p, Net: net,
			Pattern: traffic.Uniform{Grid: p.Grid},
			Load:    0.005, PacketBytes: 64,
			Until: 2 * sim.Microsecond, Seed: 11,
		}
		gen.Start()
		end := eng.Run()
		if st.Injected == 0 {
			t.Fatal("nothing injected")
		}
		if st.Delivered != st.Injected {
			t.Fatalf("delivered %d of %d", st.Delivered, st.Injected)
		}
		if end > 200*sim.Microsecond {
			t.Fatalf("drain took %v — events leaking?", end)
		}
	})
}

// TestConformanceLatencyFloor: no packet can beat light: latency must be at
// least the serialization time on the network's fastest channel plus the
// propagation delay of one site pitch.
func TestConformanceLatencyFloor(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		var lat sim.Time
		eng.ScheduleCall(0, call(func() {
			net.Inject(&core.Packet{
				Src: p.Grid.Site(0, 0), Dst: p.Grid.Site(0, 1), Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { lat = at }),
			})
		}), sim.EventArg{})
		eng.Run()
		// Fastest possible: 64 B at the token bundle's 320 GB/s (0.2 ns)
		// plus one pitch of flight (0.225 ns).
		floor := 200*sim.Picosecond + sim.FromNanoseconds(0.225)
		if lat < floor {
			t.Fatalf("latency %v beats the physical floor %v", lat, floor)
		}
	})
}

// TestConformanceDeterminism: identical runs must produce identical
// statistics.
func TestConformanceDeterminism(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		run := func() (uint64, sim.Time) {
			eng := sim.NewEngine()
			p := core.DefaultParams()
			st := core.NewStats(0)
			net := networks.MustNew(kind, eng, p, st)
			gen := &traffic.OpenLoop{
				Eng: eng, Params: p, Net: net,
				Pattern: traffic.Neighbor{Grid: p.Grid},
				Load:    0.01, PacketBytes: 64,
				Until: sim.Microsecond, Seed: 5,
			}
			gen.Start()
			eng.Run()
			return st.Delivered, st.MeanLatency()
		}
		d1, l1 := run()
		d2, l2 := run()
		if d1 != d2 || l1 != l2 {
			t.Fatalf("nondeterministic: %d/%v vs %d/%v", d1, l1, d2, l2)
		}
	})
}

// TestConformanceLoopback: intra-site traffic is one core cycle on every
// network (paper §6.2).
func TestConformanceLoopback(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		var lat sim.Time
		eng.ScheduleCall(0, call(func() {
			net.Inject(&core.Packet{Src: 13, Dst: 13, Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { lat = at })})
		}), sim.EventArg{})
		eng.Run()
		if lat != p.Cycles(1) {
			t.Fatalf("loopback = %v, want 1 cycle", lat)
		}
	})
}

// TestConformanceEnergyCounters: inter-site traffic must charge optical
// traversal energy on every network.
func TestConformanceEnergyCounters(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		eng.ScheduleCall(0, call(func() {
			for i := 0; i < 8; i++ {
				net.Inject(&core.Packet{Src: geometry.SiteID(i), Dst: geometry.SiteID(i + 8), Bytes: 64})
			}
		}), sim.EventArg{})
		eng.Run()
		if st.OpticalTraversalBytes < 8*64 {
			t.Fatalf("optical bytes = %d, want >= %d", st.OpticalTraversalBytes, 8*64)
		}
	})
}

// TestConformanceFIFOPerFlow: two packets of the same (src, dst) flow must
// be delivered in injection order on every network.
func TestConformanceFIFOPerFlow(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		var order []uint64
		eng.ScheduleCall(0, call(func() {
			for i := 0; i < 10; i++ {
				seq := uint64(i)
				net.Inject(&core.Packet{Src: 3, Dst: 42, Bytes: 64,
					Deliver: deliverFn(func(_ *core.Packet, _ sim.Time) { order = append(order, seq) })})
			}
		}), sim.EventArg{})
		eng.Run()
		if len(order) != 10 {
			t.Fatalf("delivered %d of 10", len(order))
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("flow reordered: %v", order)
			}
		}
	})
}

// TestConformanceFaultTransparency: wrapping any network in a fault
// decorator with zero active faults must be invisible — every packet is
// still delivered exactly once with bit-identical latency statistics.
func TestConformanceFaultTransparency(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		run := func(wrap bool) *core.Stats {
			eng := sim.NewEngine()
			p := core.DefaultParams()
			st := core.NewStats(0)
			var net core.Network = networks.MustNew(kind, eng, p, st)
			if wrap {
				net = fault.Wrap(eng, p, net, 99)
			}
			gen := &traffic.OpenLoop{
				Eng: eng, Params: p, Net: net,
				Pattern: traffic.Uniform{Grid: p.Grid},
				Load:    0.01, PacketBytes: 64,
				Until: 2 * sim.Microsecond, Seed: 17,
			}
			gen.Start()
			eng.Run()
			return st
		}
		raw, wrapped := run(false), run(true)
		if raw.Injected == 0 {
			t.Fatal("nothing injected")
		}
		if wrapped.Injected != raw.Injected || wrapped.Delivered != raw.Delivered {
			t.Fatalf("wrap changed delivery: %d/%d vs %d/%d",
				wrapped.Delivered, wrapped.Injected, raw.Delivered, raw.Injected)
		}
		if wrapped.Delivered != wrapped.Injected {
			t.Fatalf("wrapped run lost packets: %d of %d", wrapped.Delivered, wrapped.Injected)
		}
		if wrapped.MeanLatency() != raw.MeanLatency() || wrapped.MaxLatency() != raw.MaxLatency() {
			t.Fatalf("wrap perturbed latency: mean %v/%v max %v/%v",
				wrapped.MeanLatency(), raw.MeanLatency(), wrapped.MaxLatency(), raw.MaxLatency())
		}
		if wrapped.Dropped != 0 {
			t.Fatalf("zero-fault wrap dropped %d packets", wrapped.Dropped)
		}
	})
}

// relay is a delivery handler that reuses its packet at once: it rewrites
// every field and injects the same *Packet again from the site it reached,
// as a model recycling packets through a free list does. It counts the
// deliveries it sees and stops after hops re-injections.
type relay struct {
	net       core.Network
	sites     int
	hops      int
	delivered *int
}

func (r *relay) OnDeliver(p *core.Packet, _ sim.Time) {
	*r.delivered++
	if r.hops == 0 {
		return
	}
	r.hops--
	src := p.Dst
	*p = core.Packet{Src: src, Dst: geometry.SiteID((int(src) + 9 + r.hops) % r.sites), Bytes: 64, Deliver: r}
	r.net.Inject(p)
}

// TestConformanceHandOff pins the delivery hand-off contract: once a
// network calls Deliver, the packet belongs to the handler, so a network
// that reads the packet afterwards sees the handler's rewrite. Every site
// injects a burst to one column, so the sources' queues are busy when
// their packets come back rewritten, and every packet must still arrive.
func TestConformanceHandOff(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		const burst, hops = 4, 7
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		sites := p.Grid.Sites()
		delivered := 0
		eng.ScheduleCall(0, call(func() {
			for s := 0; s < sites; s++ {
				for i := 0; i < burst; i++ {
					net.Inject(&core.Packet{
						Src: geometry.SiteID(s), Dst: geometry.SiteID((s + 8) % sites), Bytes: 64,
						Deliver: &relay{net: net, sites: sites, hops: hops, delivered: &delivered},
					})
				}
			}
		}), sim.EventArg{})
		eng.Run()
		if want := sites * burst * (hops + 1); delivered != want || st.Delivered != st.Injected {
			t.Fatalf("delivered %d of %d (stats %d of %d)", delivered, want, st.Delivered, st.Injected)
		}
	})
}

// TestConformanceUnknownKind: the factory rejects unknown names.
func TestConformanceUnknownKind(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	if _, err := networks.New(networks.Kind("warp-drive"), eng, p, core.NewStats(0)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	networks.MustNew(networks.Kind("warp-drive"), eng, p, core.NewStats(0))
}

// TestConformanceSmallGrid: every network must also work on a 4×4 grid
// (used by the scalability study).
func TestConformanceSmallGrid(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		p.Grid = geometry.Grid{N: 4, PitchCM: 2.25}
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		eng.ScheduleCall(0, call(func() {
			for s := 0; s < 16; s++ {
				net.Inject(&core.Packet{Src: geometry.SiteID(s), Dst: geometry.SiteID((s + 5) % 16), Bytes: 64})
			}
		}), sim.EventArg{})
		eng.Run()
		if st.Delivered != 16 {
			t.Fatalf("delivered %d of 16 on 4×4 grid", st.Delivered)
		}
	})
}

// TestConformanceMessageSizes: tiny and huge payloads are both handled.
func TestConformanceMessageSizes(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind networks.Kind) {
		for _, bytes := range []int{1, 16, 72, 4096, 256 * 1024} {
			eng := sim.NewEngine()
			p := core.DefaultParams()
			st := core.NewStats(0)
			net := networks.MustNew(kind, eng, p, st)
			var small, big sim.Time
			eng.ScheduleCall(0, call(func() {
				net.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 16,
					Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { small = at })})
			}), sim.EventArg{})
			eng.Run()
			eng2 := sim.NewEngine()
			st2 := core.NewStats(0)
			net2 := networks.MustNew(kind, eng2, p, st2)
			b := bytes
			eng2.ScheduleCall(0, call(func() {
				net2.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: b,
					Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { big = at })})
			}), sim.EventArg{})
			eng2.Run()
			if bytes > 16 && big < small {
				t.Fatalf("%d B delivered faster (%v) than 16 B (%v)", bytes, big, small)
			}
		}
	})
}

// Example of using the factory in documentation form.
func ExampleNew() {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net, err := networks.New(networks.PointToPoint, eng, p, st)
	if err != nil {
		panic(err)
	}
	eng.ScheduleCall(0, call(func() {
		net.Inject(&core.Packet{Src: 0, Dst: 63, Bytes: 64})
	}), sim.EventArg{})
	eng.Run()
	fmt.Println(net.Name(), st.Delivered)
	// Output: Point-to-Point 1
}
