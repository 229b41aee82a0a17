package fault_test

import (
	"reflect"
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/fault"
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

func testSetup(t *testing.T, seed int64) (*sim.Engine, core.Params, *core.Stats, *fault.Network) {
	t.Helper()
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	inner := ptp.New(eng, p, st)
	return eng, p, st, fault.Wrap(eng, p, inner, seed)
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range fault.AllClasses() {
		got, err := fault.ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := fault.ParseClass("meteor-strike"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestPlanDeterministicAndSeedSensitive(t *testing.T) {
	cfg := fault.PlanConfig{
		Grid:             geometry.Default8x8(),
		RatePerSitePerMs: 50,
		Horizon:          10 * sim.Microsecond,
		MTTR:             2 * sim.Microsecond,
	}
	a := fault.NewPlan(cfg, 7)
	b := fault.NewPlan(cfg, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed) produced different plans")
	}
	c := fault.NewPlan(cfg, 8)
	if len(a.Events) > 0 && reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("expected events at 50 faults/site/ms over 10us")
	}
	for i, ev := range a.Events {
		if ev.Repair <= ev.At {
			t.Fatalf("event %d repairs (%v) before failing (%v)", i, ev.Repair, ev.At)
		}
		if ev.At > cfg.Horizon {
			t.Fatalf("event %d onset %v beyond horizon", i, ev.At)
		}
		if i > 0 && ev.At < a.Events[i-1].At {
			t.Fatalf("plan not sorted at %d", i)
		}
		if ev.Class == fault.StuckSwitch && ev.Peer == ev.Site {
			t.Fatalf("stuck switch %d on the diagonal", i)
		}
	}
}

func TestPlanRateScalesAndZeroRateEmpty(t *testing.T) {
	base := fault.PlanConfig{
		Grid:    geometry.Default8x8(),
		Classes: []fault.Class{fault.DarkLaser},
		Horizon: 20 * sim.Microsecond,
		MTTR:    sim.Microsecond,
	}
	lo, hi := base, base
	lo.RatePerSitePerMs, hi.RatePerSitePerMs = 10, 100
	nLo := len(fault.NewPlan(lo, 1).Events)
	nHi := len(fault.NewPlan(hi, 1).Events)
	if nHi <= nLo {
		t.Fatalf("10x rate gave %d -> %d events", nLo, nHi)
	}
	zero := base
	if n := len(fault.NewPlan(zero, 1).Events); n != 0 {
		t.Fatalf("zero rate produced %d events", n)
	}
	// A vanishing rate saturates the mean gap at the end of the time axis
	// instead of wrapping it into a 1-ps gap.
	for _, rate := range []float64{1e-300, 1e-12} {
		tiny := base
		tiny.RatePerSitePerMs, tiny.Horizon = rate, 1000*sim.Picosecond
		if n := len(fault.NewPlan(tiny, 1).Events); n != 0 {
			t.Fatalf("rate %g over 1000 ps produced %d events", rate, n)
		}
	}
}

// TestNeverRepairedFaultStaysOnAxis gives the plan a mean repair time at
// the end of the time axis: each repair saturates at MaxTime instead of
// wrapping before its onset, and the plan installs without overflowing
// the engine's time axis.
func TestNeverRepairedFaultStaysOnAxis(t *testing.T) {
	cfg := fault.PlanConfig{
		Grid:             geometry.Default8x8(),
		RatePerSitePerMs: 50,
		Horizon:          10 * sim.Microsecond,
		MTTR:             sim.MaxTime,
	}
	plan := fault.NewPlan(cfg, 7)
	if len(plan.Events) == 0 {
		t.Fatal("expected events at 50 faults/site/ms over 10us")
	}
	for i, ev := range plan.Events {
		if ev.Repair <= ev.At {
			t.Fatalf("event %d repairs (%v) before failing (%v)", i, ev.Repair, ev.At)
		}
	}
	eng, _, _, fn := testSetup(t, 1)
	fault.NewInjector(eng, fn, plan).Install()
	eng.RunUntil(cfg.Horizon)
}

func TestZeroFaultWrapTransparent(t *testing.T) {
	eng, _, st, fnet := testSetup(t, 3)
	var lat sim.Time
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { lat = at })})
	}), sim.EventArg{})
	eng.Run()
	if st.Delivered != 1 || st.Dropped != 0 || lat == 0 {
		t.Fatalf("delivered=%d dropped=%d lat=%v", st.Delivered, st.Dropped, lat)
	}
	if fnet.Name() != "Point-to-Point" {
		t.Fatalf("decorator changed the name to %q", fnet.Name())
	}
	if fnet.Stats() != st {
		t.Fatal("decorator swapped the stats sink")
	}
}

func TestDarkLaserDropsSourcedPackets(t *testing.T) {
	eng, _, st, fnet := testSetup(t, 3)
	fnet.FailLaser(5)
	delivered := map[int]bool{}
	eng.ScheduleCall(0, call(func() {
		for i, pair := range [][2]geometry.SiteID{{5, 9}, {9, 5}, {1, 2}} {
			i := i
			fnet.Inject(&core.Packet{Src: pair[0], Dst: pair[1], Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, _ sim.Time) { delivered[i] = true })})
		}
	}), sim.EventArg{})
	eng.Run()
	if delivered[0] {
		t.Fatal("packet sourced at the dark site was delivered")
	}
	if !delivered[1] || !delivered[2] {
		t.Fatalf("unrelated packets lost: %v", delivered)
	}
	if fnet.Drops(fault.DarkLaser) != 1 || st.Dropped != 1 {
		t.Fatalf("drops = %d / stats %d, want 1", fnet.Drops(fault.DarkLaser), st.Dropped)
	}
	if st.Injected != 3 {
		t.Fatalf("injected = %d, want 3 (drops still stamped)", st.Injected)
	}
	// After repair the site transmits again.
	fnet.RepairLaser(5)
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 5, Dst: 9, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, _ sim.Time) { delivered[3] = true })})
	}), sim.EventArg{})
	eng.Run()
	if !delivered[3] {
		t.Fatal("repaired site still dark")
	}
}

func TestStuckSwitchDropsOnlyThatPath(t *testing.T) {
	eng, _, _, fnet := testSetup(t, 3)
	fnet.StickPath(2, 7)
	delivered := map[int]bool{}
	eng.ScheduleCall(0, call(func() {
		for i, pair := range [][2]geometry.SiteID{{2, 7}, {7, 2}, {2, 8}} {
			i := i
			fnet.Inject(&core.Packet{Src: pair[0], Dst: pair[1], Bytes: 64,
				Deliver: deliverFn(func(_ *core.Packet, _ sim.Time) { delivered[i] = true })})
		}
	}), sim.EventArg{})
	eng.Run()
	if delivered[0] {
		t.Fatal("stuck path delivered")
	}
	if !delivered[1] || !delivered[2] {
		t.Fatalf("reverse/adjacent paths lost: %v", delivered)
	}
	if fnet.Drops(fault.StuckSwitch) != 1 {
		t.Fatalf("stuck-switch drops = %d", fnet.Drops(fault.StuckSwitch))
	}
}

func TestDetuneDelaysAndCorrupts(t *testing.T) {
	// With zero corruption the detuned site's packets still arrive, but a
	// 4x derated front-end delays them past the clean-run latency.
	latency := func(detune bool) sim.Time {
		eng, _, _, fnet := testSetup(t, 3)
		if detune {
			fnet.Detune(0, 4, 0)
		}
		var lat sim.Time
		eng.ScheduleCall(0, call(func() {
			fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 4096,
				Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { lat = at })})
		}), sim.EventArg{})
		eng.Run()
		if lat == 0 {
			t.Fatal("detuned packet never delivered")
		}
		return lat
	}
	clean, detuned := latency(false), latency(true)
	if detuned <= clean {
		t.Fatalf("detuned latency %v not above clean %v", detuned, clean)
	}

	// With certain corruption every sourced packet is lost.
	eng, _, st, fnet := testSetup(t, 3)
	fnet.Detune(0, 1, 1.0)
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 10; i++ {
			fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64})
		}
	}), sim.EventArg{})
	eng.Run()
	if fnet.Drops(fault.RingDetune) != 10 || st.Delivered != 0 {
		t.Fatalf("corruption drops = %d, delivered = %d", fnet.Drops(fault.RingDetune), st.Delivered)
	}
	// Retune restores clean delivery.
	fnet.Retune(0)
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64})
	}), sim.EventArg{})
	eng.Run()
	if st.Delivered != 1 {
		t.Fatal("retuned site still corrupting")
	}
}

func TestLoopbackImmuneToFaults(t *testing.T) {
	eng, p, st, fnet := testSetup(t, 3)
	fnet.FailLaser(4)
	fnet.Detune(4, 8, 1.0)
	var lat sim.Time
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 4, Dst: 4, Bytes: 64,
			Deliver: deliverFn(func(_ *core.Packet, at sim.Time) { lat = at })})
	}), sim.EventArg{})
	eng.Run()
	if lat != p.Cycles(1) {
		t.Fatalf("faulted loop-back = %v, want 1 cycle", lat)
	}
	if st.Dropped != 0 {
		t.Fatal("loop-back counted as dropped")
	}
}

func TestInjectorSchedulesFailureAndRepair(t *testing.T) {
	eng, _, st, fnet := testSetup(t, 3)
	plan := fault.Plan{Events: []fault.Event{
		{At: 100 * sim.Nanosecond, Repair: 300 * sim.Nanosecond, Class: fault.DarkLaser, Site: 0},
	}}
	inj := fault.NewInjector(eng, fnet, plan)
	inj.Install()
	if inj.Count() != 1 {
		t.Fatalf("Count = %d", inj.Count())
	}
	// Before onset, during the outage, and after repair.
	for _, at := range []sim.Time{50 * sim.Nanosecond, 200 * sim.Nanosecond, 400 * sim.Nanosecond} {
		eng.ScheduleCall(at, call(func() {
			fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64})
		}), sim.EventArg{})
	}
	eng.Run()
	if st.Dropped != 1 || st.Delivered != 2 {
		t.Fatalf("dropped=%d delivered=%d, want 1/2", st.Dropped, st.Delivered)
	}
	if fnet.ActiveFaults() != 0 {
		t.Fatalf("ActiveFaults = %d after repair", fnet.ActiveFaults())
	}
	if inj.Fired != 1 || inj.Repaired != 1 {
		t.Fatalf("Fired/Repaired = %d/%d", inj.Fired, inj.Repaired)
	}
	// Double install would double every fault.
	defer func() {
		if recover() == nil {
			t.Fatal("second Install did not panic")
		}
	}()
	inj.Install()
}

func TestOverlappingFaultsNest(t *testing.T) {
	eng, _, st, fnet := testSetup(t, 3)
	fnet.FailLaser(0)
	fnet.FailLaser(0)
	fnet.RepairLaser(0)
	// One outage still active: packets must still drop.
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64})
	}), sim.EventArg{})
	eng.Run()
	if st.Dropped != 1 {
		t.Fatalf("overlapping outage cleared early: dropped=%d", st.Dropped)
	}
	fnet.RepairLaser(0)
	if fnet.ActiveFaults() != 0 {
		t.Fatalf("ActiveFaults = %d", fnet.ActiveFaults())
	}
}

func TestAvailabilityMetric(t *testing.T) {
	eng, _, st, fnet := testSetup(t, 3)
	fnet.FailLaser(0)
	eng.ScheduleCall(0, call(func() {
		fnet.Inject(&core.Packet{Src: 0, Dst: 9, Bytes: 64}) // dropped
		fnet.Inject(&core.Packet{Src: 1, Dst: 9, Bytes: 64}) // delivered
	}), sim.EventArg{})
	eng.Run()
	if got := st.Availability(); got != 0.5 {
		t.Fatalf("availability = %v, want 0.5", got)
	}
	if fnet.TotalDrops() != 1 {
		t.Fatalf("TotalDrops = %d", fnet.TotalDrops())
	}
}
