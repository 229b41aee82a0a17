package traffic_test

import (
	"math"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

func TestOpenLoopOfferedRate(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: net,
		Pattern: traffic.Uniform{Grid: p.Grid},
		Load:    0.10, PacketBytes: 64,
		Until: 2 * sim.Microsecond, Seed: 5,
	}
	gen.Start()
	eng.RunUntil(3 * sim.Microsecond)
	// Offered: 10% of 320 GB/s per site × 64 sites over 2 µs.
	wantPkts := 0.10 * 320e9 / 64.0 * 2e-6 * 64
	got := float64(st.Injected)
	if math.Abs(got-wantPkts)/wantPkts > 0.05 {
		t.Fatalf("injected %v packets, want ~%v", got, wantPkts)
	}
	if st.Delivered != st.Injected {
		t.Fatalf("undelivered packets at 10%% load: %d", st.Injected-st.Delivered)
	}
}

func TestOpenLoopStopsAtHorizon(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: net,
		Pattern: traffic.Transpose{Grid: p.Grid},
		Load:    0.01, PacketBytes: 64,
		Until: 1 * sim.Microsecond, Seed: 6,
	}
	gen.Start()
	end := eng.Run()
	// Everything drains shortly after the injection horizon.
	if end > 2*sim.Microsecond {
		t.Fatalf("engine ran to %v, generator did not stop", end)
	}
	if st.Injected == 0 {
		t.Fatal("no packets injected")
	}
}

func TestOpenLoopZeroLoadInert(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: net,
		Pattern: traffic.Uniform{Grid: p.Grid},
		Load:    0, PacketBytes: 64, Until: sim.Microsecond, Seed: 7,
	}
	gen.Start()
	if eng.Pending() != 0 {
		t.Fatal("zero-load generator scheduled events")
	}
}

// TestOpenLoopTinyLoadStaysOnTheTimeAxis offers a load whose mean gap
// saturates at sim.MaxTime, over a horizon long enough that some sites
// inject: a next gap that would pass the end of the time axis is dropped
// rather than overflowing it.
func TestOpenLoopTinyLoadStaysOnTheTimeAxis(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: ptp.New(eng, p, st),
		Pattern: traffic.Uniform{Grid: p.Grid},
		Load:    1e-17, PacketBytes: 64, Until: sim.MaxTime / 8, Seed: 8,
	}
	gen.Start()
	eng.Run()
	if st.Injected == 0 || st.Delivered != st.Injected {
		t.Fatalf("%d injected, %d delivered; want some, all delivered", st.Injected, st.Delivered)
	}
}

func TestOpenLoopRetryRecoversOutage(t *testing.T) {
	// Site 0's laser is dark for a window mid-run. With a retry policy the
	// generator retransmits dropped packets after the repair: every loss is
	// either recovered or (for losses whose budget ran out) aborted — the
	// run's accounting must balance exactly.
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	fnet := fault.Wrap(eng, p, ptp.New(eng, p, st), 21)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: fnet,
		Pattern: traffic.Uniform{Grid: p.Grid},
		Load:    0.02, PacketBytes: 64,
		Until: 2 * sim.Microsecond, Seed: 9,
		Retry: traffic.RetryPolicy{Timeout: 200 * sim.Nanosecond, MaxRetries: 5},
	}
	eng.ScheduleCall(1, call(func() { fnet.FailLaser(0) }), sim.EventArg{})
	eng.ScheduleCall(500*sim.Nanosecond, call(func() { fnet.RepairLaser(0) }), sim.EventArg{})
	gen.Start()
	eng.Run()
	if st.Dropped == 0 {
		t.Fatal("outage dropped nothing")
	}
	if st.Retries == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	// Every injection attempt is accounted for: delivered or dropped.
	if st.Delivered+st.Dropped != st.Injected {
		t.Fatalf("delivered %d + dropped %d != injected %d", st.Delivered, st.Dropped, st.Injected)
	}
	// The outage repairs with generous retry budget: no packet is
	// permanently lost (each abort would mean >5 consecutive losses of one
	// packet inside a 500 ns outage with 200 ns+ backoff — impossible).
	if st.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 after repair", st.Aborts)
	}
	// Recovered losses mean retries ≥ drops from the outage window.
	if st.Retries < st.Dropped {
		t.Fatalf("retries %d < drops %d: some losses never retried", st.Retries, st.Dropped)
	}
}

func TestOpenLoopRetryExhaustionAborts(t *testing.T) {
	// A permanently dark site with a tiny retry budget: every packet it
	// sources must eventually abort rather than retry forever.
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	fnet := fault.Wrap(eng, p, ptp.New(eng, p, st), 22)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: fnet,
		Pattern: traffic.Transpose{Grid: p.Grid},
		Load:    0.01, PacketBytes: 64,
		Until: 500 * sim.Nanosecond, Seed: 10,
		Retry: traffic.RetryPolicy{Timeout: 100 * sim.Nanosecond, MaxRetries: 1},
	}
	eng.ScheduleCall(1, call(func() { fnet.FailLaser(1) }), sim.EventArg{}) // transpose: site 1 → site 8
	gen.Start()
	end := eng.Run()
	if st.Aborts == 0 {
		t.Fatal("permanent outage never aborted")
	}
	// Bounded retransmission: the run terminates (no infinite retry loop).
	if end > 100*sim.Microsecond {
		t.Fatalf("run dragged to %v — retries unbounded?", end)
	}
	if got := fnet.Drops(fault.DarkLaser); got == 0 {
		t.Fatal("per-class drop counter empty")
	}
}

func TestOpenLoopRetryDisabledSchedulesNoTimeouts(t *testing.T) {
	// Zero policy: the generator must behave exactly as before the
	// recovery layer existed (same injections, no extra events).
	run := func(retry traffic.RetryPolicy) (uint64, uint64) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := ptp.New(eng, p, st)
		gen := &traffic.OpenLoop{
			Eng: eng, Params: p, Net: net,
			Pattern: traffic.Uniform{Grid: p.Grid},
			Load:    0.05, PacketBytes: 64,
			Until: sim.Microsecond, Seed: 13,
			Retry: retry,
		}
		gen.Start()
		eng.Run()
		return st.Injected, eng.Executed()
	}
	injOff, evOff := run(traffic.RetryPolicy{})
	injOn, evOn := run(traffic.RetryPolicy{Timeout: 10 * sim.Microsecond, MaxRetries: 1})
	if injOff != injOn {
		t.Fatalf("retry policy changed injections on a lossless run: %d vs %d", injOff, injOn)
	}
	if evOn <= evOff {
		t.Fatalf("enabled policy scheduled no timeout events (%d vs %d)", evOn, evOff)
	}
}

func TestOpenLoopDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := ptp.New(eng, p, st)
		gen := &traffic.OpenLoop{
			Eng: eng, Params: p, Net: net,
			Pattern: traffic.Uniform{Grid: p.Grid},
			Load:    0.2, PacketBytes: 64, Until: sim.Microsecond, Seed: 42,
		}
		gen.Start()
		eng.Run()
		return st.Injected
	}
	if run() != run() {
		t.Fatal("same seed produced different runs")
	}
}

func TestOpenLoopSteadyStateAllocs(t *testing.T) {
	// Retry-free runs recycle delivered packets through the free list, so
	// once the event queue, free list, and histogram reach steady state the
	// whole inject→deliver cycle allocates nothing per packet.
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	gen := &traffic.OpenLoop{
		Eng: eng, Params: p, Net: net,
		Pattern: traffic.Uniform{Grid: p.Grid},
		Load:    0.10, PacketBytes: 64,
		Until: 100 * sim.Microsecond, Seed: 17,
	}
	gen.Start()
	var next sim.Time
	window := 200 * sim.Nanosecond
	step := func() {
		next += window
		eng.RunUntil(next)
	}
	for i := 0; i < 20; i++ { // warm up: queue capacity + free-list fill
		step()
	}
	before := st.Delivered
	if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
		t.Fatalf("steady-state open loop allocated %.1f per %v window, want 0", allocs, window)
	}
	if st.Delivered == before {
		t.Fatal("no traffic flowed during the measurement windows")
	}
}

func TestOpenLoopRecyclingPreservesResults(t *testing.T) {
	// The free list must be invisible in the statistics: a retry-free run
	// (recycled packets) and a retry-enabled run on a lossless, unsaturated
	// network (every packet freshly allocated, since retries retain
	// references; the generous timeout never fires) inject the same stream
	// and deliver with identical latency totals.
	run := func(retry traffic.RetryPolicy) (uint64, sim.Time, sim.Time) {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := ptp.New(eng, p, st)
		gen := &traffic.OpenLoop{
			Eng: eng, Params: p, Net: net,
			Pattern: traffic.Uniform{Grid: p.Grid},
			Load:    0.15, PacketBytes: 64,
			Until: 2 * sim.Microsecond, Seed: 23,
			Retry: retry,
		}
		gen.Start()
		eng.Run()
		return st.Delivered, st.MeanLatency(), st.MaxLatency()
	}
	dFree, meanFree, maxFree := run(traffic.RetryPolicy{})
	dAlloc, meanAlloc, maxAlloc := run(traffic.RetryPolicy{Timeout: 100 * sim.Microsecond, MaxRetries: 1})
	if dFree != dAlloc || meanFree != meanAlloc || maxFree != maxAlloc {
		t.Fatalf("recycled run (%d, %v, %v) != allocating run (%d, %v, %v)",
			dFree, meanFree, maxFree, dAlloc, meanAlloc, maxAlloc)
	}
}
