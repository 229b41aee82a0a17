package limited_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks/limited"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// deliverFn adapts a test closure to core.DeliverHandler.
type deliverFn func(*core.Packet, sim.Time)

func (f deliverFn) OnDeliver(p *core.Packet, at sim.Time) { f(p, at) }

func setup() (*sim.Engine, core.Params, *core.Stats, *limited.Network) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	return eng, p, st, limited.New(eng, p, st)
}

func send(eng *sim.Engine, n *limited.Network, src, dst geometry.SiteID, bytes int) (*sim.Time, *core.Packet) {
	var at sim.Time = -1
	pkt := &core.Packet{Src: src, Dst: dst, Bytes: bytes, Class: core.ClassData,
		Deliver: deliverFn(func(_ *core.Packet, t sim.Time) { at = t })}
	eng.ScheduleCall(0, call(func() { n.Inject(pkt) }), sim.EventArg{})
	return &at, pkt
}

func TestPeerClassification(t *testing.T) {
	_, p, _, n := setup()
	g := p.Grid
	if !n.IsPeer(g.Site(2, 1), g.Site(2, 6)) {
		t.Fatal("row peers not direct")
	}
	if !n.IsPeer(g.Site(1, 3), g.Site(6, 3)) {
		t.Fatal("column peers not direct")
	}
	if n.IsPeer(g.Site(1, 3), g.Site(2, 4)) {
		t.Fatal("diagonal pair should not be direct")
	}
	// Every site has exactly 14 peers.
	for s := 0; s < g.Sites(); s++ {
		peers := 0
		for d := 0; d < g.Sites(); d++ {
			if s != d && n.IsPeer(geometry.SiteID(s), geometry.SiteID(d)) {
				peers++
			}
		}
		if peers != 14 {
			t.Fatalf("site %d has %d peers, want 14", s, peers)
		}
	}
}

func TestForwarders(t *testing.T) {
	_, p, _, n := setup()
	g := p.Grid
	rf, cf := n.Forwarders(g.Site(1, 2), g.Site(5, 7))
	if rf != g.Site(1, 7) {
		t.Fatalf("row-first forwarder = %d, want (1,7)", rf)
	}
	if cf != g.Site(5, 2) {
		t.Fatalf("column-first forwarder = %d, want (5,2)", cf)
	}
	// Both forwarders must be peers of both endpoints.
	for _, f := range []geometry.SiteID{rf, cf} {
		if !n.IsPeer(g.Site(1, 2), f) || !n.IsPeer(f, g.Site(5, 7)) {
			t.Fatalf("forwarder %d not peer of both endpoints", f)
		}
	}
}

func TestDirectLatency(t *testing.T) {
	eng, p, st, n := setup()
	at, pkt := send(eng, n, p.Grid.Site(0, 0), p.Grid.Site(0, 3), 64)
	eng.Run()
	// 64 B at 20 GB/s = 3.2 ns + 3 pitches × 0.225 ns = 0.675 ns.
	want := sim.FromNanoseconds(3.2 + 0.675)
	if *at != want {
		t.Fatalf("direct delivery at %v, want %v", *at, want)
	}
	if pkt.Hops != 0 {
		t.Fatalf("direct packet took %d router hops", pkt.Hops)
	}
	if st.RouterBytes != 0 {
		t.Fatal("direct packet charged router energy")
	}
}

func TestForwardedLatencyAndEnergy(t *testing.T) {
	eng, p, st, n := setup()
	src, dst := p.Grid.Site(0, 0), p.Grid.Site(3, 3)
	at, pkt := send(eng, n, src, dst, 64)
	eng.Run()
	// Two optical legs of 3 pitches each plus one router cycle:
	// 2 × (3.2 + 0.675) ns + 0.2 ns.
	want := 2*sim.FromNanoseconds(3.875) + p.Cycles(1)
	if *at != want {
		t.Fatalf("forwarded delivery at %v, want %v", *at, want)
	}
	if pkt.Hops != 1 {
		t.Fatalf("forwarded packet took %d router hops, want 1", pkt.Hops)
	}
	if st.RouterBytes != 64 {
		t.Fatalf("router bytes = %d, want 64", st.RouterBytes)
	}
	if st.OpticalTraversalBytes != 128 {
		t.Fatalf("optical bytes = %d, want 128 (two legs)", st.OpticalTraversalBytes)
	}
}

func TestAtMostOneElectronicHop(t *testing.T) {
	// Paper §4.6: every transmission takes at most one O-E/E-O conversion.
	eng, p, _, n := setup()
	var pkts []*core.Packet
	eng.ScheduleCall(0, call(func() {
		for s := 0; s < p.Grid.Sites(); s++ {
			for d := 0; d < p.Grid.Sites(); d++ {
				pkt := &core.Packet{Src: geometry.SiteID(s), Dst: geometry.SiteID(d), Bytes: 64}
				pkts = append(pkts, pkt)
				n.Inject(pkt)
			}
		}
	}), sim.EventArg{})
	eng.Run()
	for _, pkt := range pkts {
		if pkt.Hops > 1 {
			t.Fatalf("%d→%d took %d hops", pkt.Src, pkt.Dst, pkt.Hops)
		}
	}
}

func TestLoopback(t *testing.T) {
	eng, p, _, n := setup()
	at, _ := send(eng, n, 9, 9, 64)
	eng.Run()
	if *at != p.Cycles(1) {
		t.Fatalf("loopback at %v", *at)
	}
}

func TestForwarderLoadBalancing(t *testing.T) {
	// Saturate the row-first leg; the next packet should divert to the
	// column-first forwarder and arrive sooner than strict XY would allow.
	eng, p, _, n := setup()
	g := p.Grid
	src, dst := g.Site(0, 0), g.Site(3, 3)
	rf, _ := n.Forwarders(src, dst)
	eng.ScheduleCall(0, call(func() {
		// Jam the src→rowFirst channel with unrelated traffic.
		for i := 0; i < 50; i++ {
			n.Inject(&core.Packet{Src: src, Dst: rf, Bytes: 64})
		}
	}), sim.EventArg{})
	var at sim.Time
	eng.ScheduleCall(1, call(func() {
		n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { at = tt })})
	}), sim.EventArg{})
	eng.Run()
	// Via the idle column-first leg the packet needs ~8 ns; behind the jam
	// it would need > 50 × 3.2 ns.
	if at > 20*sim.Nanosecond {
		t.Fatalf("packet did not divert around congested forwarder: %v", at)
	}
}

func TestNeighborTrafficAllDirect(t *testing.T) {
	eng, p, st, n := setup()
	g := p.Grid
	eng.ScheduleCall(0, call(func() {
		for r := 0; r < g.N; r++ {
			for c := 0; c < g.N; c++ {
				src := g.Site(r, c)
				n.Inject(&core.Packet{Src: src, Dst: g.Site(r, (c+1)%g.N), Bytes: 64})
				n.Inject(&core.Packet{Src: src, Dst: g.Site((r+1)%g.N, c), Bytes: 64})
			}
		}
	}), sim.EventArg{})
	eng.Run()
	if st.RouterBytes != 0 {
		t.Fatalf("neighbor traffic used routers: %d bytes", st.RouterBytes)
	}
	if st.Delivered != 128 {
		t.Fatalf("delivered = %d, want 128", st.Delivered)
	}
}

func TestName(t *testing.T) {
	_, _, _, n := setup()
	if n.Name() != "Limited Point-to-Point" {
		t.Fatalf("Name = %q", n.Name())
	}
}
