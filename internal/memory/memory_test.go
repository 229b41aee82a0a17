package memory_test

import (
	"testing"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/memory"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

func TestTechnologyPresets(t *testing.T) {
	techs := memory.Technologies()
	if len(techs) != 4 {
		t.Fatalf("got %d presets", len(techs))
	}
	if techs[0].Name != "on-package" || techs[0].MissFraction != 0 {
		t.Fatalf("baseline preset wrong: %+v", techs[0])
	}
	if _, err := memory.ByName("fiber-dram"); err != nil {
		t.Fatal(err)
	}
	if _, err := memory.ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestOnPackageIsImmediate(t *testing.T) {
	eng := sim.NewEngine()
	tech, _ := memory.ByName("on-package")
	mc := memory.NewController(eng, 64, tech, 1)
	called := false
	mc.Access(0, 72, call(func() {
		called = true
		if eng.Now() != 0 {
			t.Errorf("on-package access took %v", eng.Now())
		}
	}), sim.EventArg{})
	if !called {
		t.Fatal("on-package access not synchronous")
	}
	if mc.Accesses != 0 {
		t.Fatal("on-package counted as off-package access")
	}
	if mc.WorstCaseNS(72) != 0 {
		t.Fatal("on-package worst case nonzero")
	}
}

func TestOffPackageLatency(t *testing.T) {
	eng := sim.NewEngine()
	tech := memory.Technology{Name: "t", AccessNS: 50, FiberMeters: 1, ChannelGBs: 40, MissFraction: 1.0}
	mc := memory.NewController(eng, 64, tech, 1)
	var at sim.Time = -1
	eng.ScheduleCall(0, call(func() {
		mc.Access(3, 72, call(func() { at = eng.Now() }), sim.EventArg{})
	}), sim.EventArg{})
	eng.Run()
	// 72 B at 40 GB/s (1.8 ns) + 2×1 m × 5 ns/m + 50 ns = 61.8 ns.
	want := sim.FromNanoseconds(1.8 + 10 + 50)
	if at != want {
		t.Fatalf("off-package access at %v, want %v", at, want)
	}
	if mc.Accesses != 1 {
		t.Fatalf("accesses = %d", mc.Accesses)
	}
	if got := mc.WorstCaseNS(72); got != 61.8 {
		t.Fatalf("WorstCaseNS = %v", got)
	}
}

func TestChannelSerializesAccesses(t *testing.T) {
	eng := sim.NewEngine()
	tech := memory.Technology{Name: "t", AccessNS: 0, FiberMeters: 0, ChannelGBs: 1, MissFraction: 1.0}
	mc := memory.NewController(eng, 4, tech, 1)
	var t1, t2 sim.Time
	eng.ScheduleCall(0, call(func() {
		mc.Access(0, 100, call(func() { t1 = eng.Now() }), sim.EventArg{}) // 100 ns at 1 GB/s
		mc.Access(0, 100, call(func() { t2 = eng.Now() }), sim.EventArg{})
	}), sim.EventArg{})
	eng.Run()
	if t2-t1 != 100*sim.Nanosecond {
		t.Fatalf("second access not serialized: %v vs %v", t1, t2)
	}
}

func TestMissFractionSampling(t *testing.T) {
	eng := sim.NewEngine()
	tech := memory.Technology{Name: "t", AccessNS: 1, FiberMeters: 0, ChannelGBs: 100, MissFraction: 0.25}
	mc := memory.NewController(eng, 4, tech, 7)
	const n = 4000
	for i := 0; i < n; i++ {
		mc.Access(0, 72, call(func() {}), sim.EventArg{})
	}
	frac := float64(mc.Accesses) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("off-package fraction = %.3f, want ~0.25", frac)
	}
}

// TestCoherenceIntegration verifies that attaching a slow memory backend
// stretches unshared-miss latency by exactly the memory time.
func TestCoherenceIntegration(t *testing.T) {
	run := func(tech memory.Technology) sim.Time {
		eng := sim.NewEngine()
		p := core.DefaultParams()
		st := core.NewStats(0)
		net := ptp.New(eng, p, st)
		coh := coherence.NewEngine(eng, p, net)
		coh.SetMemory(memory.NewController(eng, p.Grid.Sites(), tech, 1))
		var lat sim.Time
		eng.ScheduleCall(0, call(func() {
			coh.Issue(coherence.Op{
				Requester: p.Grid.Site(0, 0), Home: p.Grid.Site(0, 1),
				OnComplete: func(l sim.Time) { lat = l },
			})
		}), sim.EventArg{})
		eng.Run()
		return lat
	}
	fast := run(memory.Technology{Name: "x", MissFraction: 0})
	slow := run(memory.Technology{Name: "y", AccessNS: 100, FiberMeters: 1, ChannelGBs: 40, MissFraction: 1})
	// 100 ns device + 10 ns fiber + 1.8 ns serialization.
	if got := slow - fast; got != sim.FromNanoseconds(111.8) {
		t.Fatalf("memory added %v, want 111.800ns", got)
	}
}
