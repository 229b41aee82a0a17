package circuit_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/networks/circuit"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// deliverFn adapts a test closure to core.DeliverHandler.
type deliverFn func(*core.Packet, sim.Time)

func (f deliverFn) OnDeliver(p *core.Packet, at sim.Time) { f(p, at) }

func setup() (*sim.Engine, core.Params, *core.Stats, *circuit.Network) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	return eng, p, st, circuit.New(eng, p, st)
}

func TestControlHopLatency(t *testing.T) {
	_, p, _, n := setup()
	// 8 B setup flit at 2.5 GB/s (3.2 ns) + 1 router cycle (0.2 ns) + one
	// torus hop of propagation (0.225 ns) = 3.625 ns.
	want := sim.FromNanoseconds(3.2) + p.Cycles(1) + sim.FromNanoseconds(0.225)
	if n.CtrlHopLatency() != want {
		t.Fatalf("control hop = %v, want %v", n.CtrlHopLatency(), want)
	}
}

func TestUnloadedLatency(t *testing.T) {
	eng, p, _, n := setup()
	src, dst := p.Grid.Site(0, 0), p.Grid.Site(0, 1) // 1 torus hop
	var at sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { at = tt })})
	}), sim.EventArg{})
	eng.Run()
	// Setup out + ack back (2 × ctrlHop) + data 64 B at 20 GB/s (3.2 ns) +
	// 1 hop propagation.
	want := 2*n.CtrlHopLatency() + sim.FromNanoseconds(3.2) + sim.FromNanoseconds(0.225)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSetupScalesWithTorusHops(t *testing.T) {
	eng, p, _, n := setup()
	var near, far sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: p.Grid.Site(0, 0), Dst: p.Grid.Site(0, 1), Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { near = tt })})
		n.Inject(&core.Packet{Src: p.Grid.Site(4, 0), Dst: p.Grid.Site(0, 4), Bytes: 64, // 8 hops
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { far = tt })})
	}), sim.EventArg{})
	eng.Run()
	// 8 hops vs 1: setup difference 14 × ctrlHop, prop difference 7 hops.
	wantDiff := 14*n.CtrlHopLatency() + 7*sim.FromNanoseconds(0.225)
	if far-near != wantDiff {
		t.Fatalf("far-near = %v, want %v", far-near, wantDiff)
	}
}

func TestTorusWraparoundShortensPath(t *testing.T) {
	eng, p, _, n := setup()
	var wrap, inner sim.Time
	eng.ScheduleCall(0, call(func() {
		// (0,0)→(0,7) is 1 hop via wraparound.
		n.Inject(&core.Packet{Src: p.Grid.Site(0, 0), Dst: p.Grid.Site(0, 7), Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { wrap = tt })})
		// (1,0)→(1,3) is 3 hops.
		n.Inject(&core.Packet{Src: p.Grid.Site(1, 0), Dst: p.Grid.Site(1, 3), Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { inner = tt })})
	}), sim.EventArg{})
	eng.Run()
	if wrap >= inner {
		t.Fatalf("wraparound path (%v) should beat 3-hop path (%v)", wrap, inner)
	}
}

func TestGatewaySlotLimit(t *testing.T) {
	eng, p, _, n := setup()
	// Burst more transfers than the gateway has circuit engines: the
	// excess must queue.
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 10; i++ {
			n.Inject(&core.Packet{Src: 0, Dst: core.DefaultParams().Grid.Site(0, 1), Bytes: 64})
		}
		if got := n.PendingAt(0); got != 10-p.CircuitSlotsPerSite {
			t.Errorf("pending = %d, want %d", got, 10-p.CircuitSlotsPerSite)
		}
	}), sim.EventArg{})
	eng.Run()
	if n.PendingAt(0) != 0 {
		t.Fatalf("queue not drained: %d", n.PendingAt(0))
	}
}

func TestSlotThroughputSerialization(t *testing.T) {
	// With 1 circuit slot, N transfers to the same destination take N ×
	// (setup + data) end to end.
	eng, p, _, _ := setup()
	p.CircuitSlotsPerSite = 1
	st := core.NewStats(0)
	n := circuit.New(eng, p, st)
	var last sim.Time
	const N = 5
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < N; i++ {
			n.Inject(&core.Packet{Src: 0, Dst: 1, Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { last = tt })})
		}
	}), sim.EventArg{})
	eng.Run()
	per := 2*n.CtrlHopLatency() + sim.FromNanoseconds(3.2)
	want := N*per + sim.FromNanoseconds(0.225)
	if last != want {
		t.Fatalf("last delivery %v, want %v", last, want)
	}
}

func TestControlEnergyAccounting(t *testing.T) {
	eng, p, st, n := setup()
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: p.Grid.Site(0, 0), Dst: p.Grid.Site(0, 2), Bytes: 64}) // 2 hops
	}), sim.EventArg{})
	eng.Run()
	// 2 hops × 2 directions = 4 control messages of 8 B each, plus the 64 B
	// data traversal.
	if st.ArbMessages != 4 {
		t.Fatalf("control messages = %d, want 4", st.ArbMessages)
	}
	if st.OpticalTraversalBytes != 64+4*8 {
		t.Fatalf("optical bytes = %d, want 96", st.OpticalTraversalBytes)
	}
}

func TestLoopback(t *testing.T) {
	eng, p, _, n := setup()
	var at sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: 2, Dst: 2, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { at = tt })})
	}), sim.EventArg{})
	eng.Run()
	if at != p.Cycles(1) {
		t.Fatalf("loopback at %v", at)
	}
}

func TestName(t *testing.T) {
	_, _, _, n := setup()
	if n.Name() != "Circuit Switched" {
		t.Fatalf("Name = %q", n.Name())
	}
}

func TestHotspotLandingContention(t *testing.T) {
	// Many sources opening circuits into one destination saturate its
	// landing bandwidth: the same transfers spread over distinct
	// destinations finish sooner.
	run := func(hotspot bool) sim.Time {
		eng, p, _, _ := setup()
		p.CircuitSlotsPerSite = 8
		st := core.NewStats(0)
		n := circuit.New(eng, p, st)
		var last sim.Time
		eng.ScheduleCall(0, call(func() {
			for s := 1; s < 33; s++ {
				dst := 0
				if !hotspot {
					dst = (s + 31) % 64
				}
				n.Inject(&core.Packet{Src: core.DefaultParams().Grid.Site(s/8, s%8),
					Dst: core.DefaultParams().Grid.Site(dst/8, dst%8), Bytes: 16384,
					Deliver: deliverFn(func(_ *core.Packet, at sim.Time) {
						if at > last {
							last = at
						}
					})})
			}
		}), sim.EventArg{})
		eng.Run()
		return last
	}
	hot, spread := run(true), run(false)
	if hot <= spread {
		t.Fatalf("hotspot (%v) should be slower than spread (%v)", hot, spread)
	}
}
