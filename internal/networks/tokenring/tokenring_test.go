package tokenring_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks/tokenring"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

// deliverFn adapts a test closure to core.DeliverHandler.
type deliverFn func(*core.Packet, sim.Time)

func (f deliverFn) OnDeliver(p *core.Packet, at sim.Time) { f(p, at) }

func setup() (*sim.Engine, core.Params, *core.Stats, *tokenring.Network) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	return eng, p, st, tokenring.New(eng, p, st)
}

func TestTokenHopPace(t *testing.T) {
	p := core.DefaultParams()
	// 80 cycles round trip over 64 sites = 1.25 cycles = 250 ps per hop.
	hop := p.Cycles(p.TokenRoundTripCycles) / sim.Time(p.Grid.Sites())
	if hop != 250*sim.Picosecond {
		t.Fatalf("token hop = %v, want 250ps", hop)
	}
}

func TestLoopback(t *testing.T) {
	eng, p, _, n := setup()
	var at sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: 3, Dst: 3, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { at = tt })})
	}), sim.EventArg{})
	eng.Run()
	if at != p.Cycles(1) {
		t.Fatalf("loopback at %v", at)
	}
}

func TestFirstAcquisitionWaitsForToken(t *testing.T) {
	eng, p, _, n := setup()
	// The token for destination d starts parked at d. A sender k ring
	// positions downstream waits k hops before transmitting.
	ringOrder := p.Grid.RingPositions()
	dst := ringOrder[0]
	src := ringOrder[5]
	var at sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { at = tt })})
	}), sim.EventArg{})
	eng.Run()
	hop := p.Cycles(p.TokenRoundTripCycles) / sim.Time(p.Grid.Sites())
	// Token travel (5 hops) + 1-cycle transmit + data propagation back to
	// position 0 (59 ring hops at 0.225 ns each).
	prop := sim.FromNanoseconds(float64(59) * p.Grid.PitchCM * p.Comp.PropagationNSPerCM)
	want := 5*hop + p.Cycles(1) + prop
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestReacquisitionCostsFullRoundTrip(t *testing.T) {
	eng, p, _, n := setup()
	ringOrder := p.Grid.RingPositions()
	dst, src := ringOrder[0], ringOrder[5]
	var times []sim.Time
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 3; i++ {
			n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { times = append(times, tt) })})
		}
	}), sim.EventArg{})
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	// With one packet per grab, successive packets from the same lone
	// sender are spaced one full token circulation (80 cycles = 16 ns)
	// plus the 1-cycle transmit.
	gap := times[1] - times[0]
	want := p.Cycles(p.TokenRoundTripCycles) + p.Cycles(1)
	if gap != want {
		t.Fatalf("reacquisition gap = %v, want %v", gap, want)
	}
	if times[2]-times[1] != gap {
		t.Fatalf("third gap %v differs", times[2]-times[1])
	}
}

func TestSingleFlowThroughputBelowOnePercent(t *testing.T) {
	// Paper §6.1: on one-to-one patterns the token ring reaches <1–1.3% of
	// the 320 GB/s per-site peak because each 1-cycle transmit pays an
	// 80-cycle token recirculation.
	eng, p, st, n := setup()
	st.MeasureEnd = 10 * sim.Microsecond
	ringOrder := p.Grid.RingPositions()
	dst, src := ringOrder[0], ringOrder[5]
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 2000; i++ {
			n.Inject(&core.Packet{Src: src, Dst: dst, Bytes: 64})
		}
	}), sim.EventArg{})
	eng.RunUntil(10 * sim.Microsecond)
	frac := st.ThroughputGBs() / 320
	if frac < 0.008 || frac > 0.016 {
		t.Fatalf("single-flow throughput = %.2f%% of site peak, want ~1.2%%", frac*100)
	}
}

func TestTokenDivertsToNearerWaiter(t *testing.T) {
	// A waiter closer (in ring order) to the token's release point must be
	// served before a farther one even if it requested later.
	eng, p, _, n := setup()
	ringOrder := p.Grid.RingPositions()
	dst := ringOrder[0]
	far := ringOrder[40]
	near := ringOrder[10]
	var farAt, nearAt sim.Time
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: far, Dst: dst, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { farAt = tt })})
	}), sim.EventArg{})
	// The near waiter requests shortly after, while the token (released at
	// position 0 at t=0) is still upstream of position 10.
	eng.ScheduleCall(100*sim.Picosecond, call(func() {
		n.Inject(&core.Packet{Src: near, Dst: dst, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, tt sim.Time) { nearAt = tt })})
	}), sim.EventArg{})
	eng.Run()
	if nearAt == 0 || farAt == 0 {
		t.Fatal("not all delivered")
	}
	// The near sender transmits first; both transmissions end at the
	// token-arrival + 1 cycle, so compare transmit starts via queue order:
	// near transmit must begin before far's token arrival (hop 40).
	hop := p.Cycles(p.TokenRoundTripCycles) / sim.Time(p.Grid.Sites())
	if nearAt >= farAt {
		t.Fatalf("near waiter served at %v, after far waiter at %v", nearAt, farAt)
	}
	if farAt < 40*hop {
		t.Fatalf("far waiter served too early: %v", farAt)
	}
}

func TestEnergyAndTokenOps(t *testing.T) {
	eng, _, st, n := setup()
	eng.ScheduleCall(0, call(func() {
		n.Inject(&core.Packet{Src: 1, Dst: 2, Bytes: 64})
		n.Inject(&core.Packet{Src: 3, Dst: 4, Bytes: 16})
	}), sim.EventArg{})
	eng.Run()
	if st.OpticalTraversalBytes != 80 {
		t.Fatalf("optical bytes = %d, want 80", st.OpticalTraversalBytes)
	}
	if st.ArbMessages != 2 {
		t.Fatalf("token acquisitions = %d, want 2", st.ArbMessages)
	}
}

func TestQueuedFor(t *testing.T) {
	eng, _, _, n := setup()
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 5; i++ {
			n.Inject(&core.Packet{Src: 9, Dst: 2, Bytes: 64})
		}
		if q := n.QueuedFor(9, 2); q != 5 {
			t.Errorf("QueuedFor = %d, want 5", q)
		}
	}), sim.EventArg{})
	eng.Run()
	if q := n.QueuedFor(geometry.SiteID(9), geometry.SiteID(2)); q != 0 {
		t.Fatalf("residual queue = %d", q)
	}
}

func TestName(t *testing.T) {
	_, _, _, n := setup()
	if n.Name() != "Token Ring" {
		t.Fatalf("Name = %q", n.Name())
	}
}

func TestBurstGrabPolicy(t *testing.T) {
	// With TokenMaxPacketsPerGrab > 1 a backlogged sender drains several
	// packets per acquisition, lifting one-to-one throughput — the policy
	// knob behind the paper's "<1%" transpose result.
	run := func(burst int) sim.Time {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		p.TokenMaxPacketsPerGrab = burst
		st := core.NewStats(0)
		n := tokenring.New(eng, p, st)
		var last sim.Time
		eng.ScheduleCall(0, call(func() {
			for i := 0; i < 32; i++ {
				n.Inject(&core.Packet{Src: 5, Dst: 9, Bytes: 64,
					Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { last = at })})
			}
		}), sim.EventArg{})
		eng.Run()
		return last
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("burst=4 finished at %v, burst=1 at %v — bursts should help", four, one)
	}
	// Burst 4 needs a quarter of the token circulations: expect ~4× less
	// recirculation time (within slack for transmit and travel time).
	if float64(one)/float64(four) < 2.5 {
		t.Fatalf("burst speedup only %.2f×", float64(one)/float64(four))
	}
}
