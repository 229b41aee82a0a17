package ptp_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// deliverFn adapts a test closure to core.DeliverHandler.
type deliverFn func(*core.Packet, sim.Time)

func (f deliverFn) OnDeliver(p *core.Packet, at sim.Time) { f(p, at) }

func setup() (*sim.Engine, core.Params, *core.Stats, *ptp.Network) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	return eng, p, st, ptp.New(eng, p, st)
}

func send(eng *sim.Engine, n *ptp.Network, src, dst geometry.SiteID, bytes int) *sim.Time {
	var at sim.Time = -1
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: bytes, Class: core.ClassData,
			Deliver: deliverFn(func(_ *core.Packet, t sim.Time) { at = t })})
	}), sim.EventArg{})
	return &at
}

func TestUnloadedLatency(t *testing.T) {
	eng, p, _, n := setup()
	src, dst := p.Grid.Site(0, 0), p.Grid.Site(0, 1)
	at := send(eng, n, src, dst, 64)
	eng.Run()
	// 64 B at 5 GB/s = 12.8 ns serialization + 2.25 cm × 0.1 ns/cm = 0.225
	// ns propagation.
	want := sim.FromNanoseconds(12.8) + sim.FromNanoseconds(0.225)
	if *at != want {
		t.Fatalf("delivery at %v, want %v", *at, want)
	}
}

func TestCornerToCornerLatency(t *testing.T) {
	eng, p, _, n := setup()
	at := send(eng, n, p.Grid.Site(0, 0), p.Grid.Site(7, 7), 64)
	eng.Run()
	want := sim.FromNanoseconds(12.8 + 3.15)
	if *at != want {
		t.Fatalf("delivery at %v, want %v", *at, want)
	}
}

func TestLoopbackOneCycle(t *testing.T) {
	eng, p, _, n := setup()
	at := send(eng, n, 5, 5, 64)
	eng.Run()
	if *at != p.Cycles(1) {
		t.Fatalf("loopback at %v, want %v", *at, p.Cycles(1))
	}
}

func TestChannelSerializesBackToBack(t *testing.T) {
	eng, _, _, n := setup()
	a1 := send(eng, n, 0, 1, 64)
	a2 := send(eng, n, 0, 1, 64)
	eng.Run()
	// Second packet waits for the first to finish serializing.
	if *a2-*a1 != sim.FromNanoseconds(12.8) {
		t.Fatalf("gap = %v, want 12.800ns", *a2-*a1)
	}
}

func TestDistinctChannelsIndependent(t *testing.T) {
	eng, _, _, n := setup()
	a1 := send(eng, n, 0, 1, 64)
	a2 := send(eng, n, 0, 2, 64) // different destination: dedicated channel
	a3 := send(eng, n, 3, 1, 64) // different source: dedicated channel
	eng.Run()
	if *a2-*a1 >= sim.FromNanoseconds(12.8) {
		t.Fatalf("cross-destination interference: %v vs %v", *a1, *a2)
	}
	if *a3-*a1 >= sim.FromNanoseconds(12.8) {
		t.Fatalf("cross-source interference: %v vs %v", *a1, *a3)
	}
}

func TestOpticalEnergyAccounting(t *testing.T) {
	eng, _, st, n := setup()
	send(eng, n, 0, 1, 64)
	send(eng, n, 2, 3, 16)
	send(eng, n, 4, 4, 64) // loopback: no optical traversal
	eng.Run()
	if st.OpticalTraversalBytes != 80 {
		t.Fatalf("optical bytes = %d, want 80", st.OpticalTraversalBytes)
	}
	if st.RouterBytes != 0 {
		t.Fatalf("router bytes = %d, want 0 (no electronic routing)", st.RouterBytes)
	}
}

func TestSingleFlowThroughputCap(t *testing.T) {
	// One site pair is limited to the 5 GB/s channel: 100 back-to-back
	// 64-byte packets take 100 × 12.8 ns of serialization.
	eng, _, st, n := setup()
	var last sim.Time
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 100; i++ {
			n.Inject(&core.Packet{Src: 0, Dst: 1, Bytes: 64, Class: core.ClassData,
				Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { last = at })})
		}
	}), sim.EventArg{})
	eng.Run()
	want := 100*sim.FromNanoseconds(12.8) + sim.FromNanoseconds(0.225)
	if last != want {
		t.Fatalf("last delivery %v, want %v", last, want)
	}
	if st.Delivered != 100 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
}

func TestChannelUtilization(t *testing.T) {
	eng, _, _, n := setup()
	send(eng, n, 0, 1, 64)
	eng.Run()
	elapsed := eng.Now()
	if u := n.ChannelUtilization(0, 1, elapsed); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	if u := n.ChannelUtilization(1, 0, elapsed); u != 0 {
		t.Fatalf("reverse channel utilization = %v, want 0", u)
	}
	if u := n.ChannelUtilization(3, 3, elapsed); u != 0 {
		t.Fatalf("self utilization = %v, want 0", u)
	}
}

func TestName(t *testing.T) {
	_, _, st, n := setup()
	if n.Name() != "Point-to-Point" {
		t.Fatalf("Name = %q", n.Name())
	}
	if n.Stats() != st {
		t.Fatal("Stats sink mismatch")
	}
}
