package trace_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/trace"
)

func runProfile(t *testing.T, name string, kind networks.Kind) (*trace.Machine, float64) {
	t.Helper()
	prof, err := trace.ProfileByName(name, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.CoresPerSite = 2 // shrink for unit tests
	eng := sim.NewEngine()
	st := core.NewStats(0)
	net := networks.MustNew(kind, eng, p, st)
	m := trace.NewMachine(eng, p, net, st, prof)
	res := m.Run(9)
	if res.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	return m, m.MissRate()
}

func TestProfilesComplete(t *testing.T) {
	profs := trace.Profiles(1)
	if len(profs) != 6 {
		t.Fatalf("got %d profiles", len(profs))
	}
	names := map[string]bool{}
	for _, p := range profs {
		names[p.Name] = true
		if p.RefsPerCore <= 0 || p.MeanGapInstr <= 0 {
			t.Fatalf("profile %s malformed: %+v", p.Name, p)
		}
	}
	for _, w := range []string{"radix", "barnes", "blackscholes", "densities", "forces", "swaptions"} {
		if !names[w] {
			t.Errorf("profile %q missing", w)
		}
	}
	if _, err := trace.ProfileByName("nope", 1); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestEmergentMissRates(t *testing.T) {
	// Streaming kernels (working set ≫ 256 KB L2) must miss far more than
	// barnes (hot region fits in cache). Run on a small 2×2 grid with the
	// full reference quota so the caches warm past their compulsory-miss
	// phase.
	run := func(name string) float64 {
		prof, err := trace.ProfileByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := core.DefaultParams()
		p.Grid = geometry.Grid{N: 2, PitchCM: 2.25}
		p.CoresPerSite = 4
		eng := sim.NewEngine()
		st := core.NewStats(0)
		net := networks.MustNew(networks.PointToPoint, eng, p, st)
		m := trace.NewMachine(eng, p, net, st, prof)
		m.Run(9)
		return m.MissRate()
	}
	swaptions, barnes := run("swaptions"), run("barnes")
	if swaptions < 2*barnes {
		t.Fatalf("swaptions miss rate %.3f should dwarf barnes %.3f", swaptions, barnes)
	}
	if barnes > 0.5 {
		t.Fatalf("barnes miss rate %.3f too high for an in-cache kernel", barnes)
	}
}

func TestEmergentSharingGeneratesInvalidations(t *testing.T) {
	m, _ := runProfile(t, "forces", networks.PointToPoint)
	d := m.Directory()
	if d.WriteMisses == 0 || d.ReadMisses == 0 {
		t.Fatal("no directory activity")
	}
	if d.InvalidationsSent == 0 {
		t.Fatal("write-shared kernel produced no invalidations")
	}
}

func TestMostlyPrivateKernelRarelyInvalidates(t *testing.T) {
	m, _ := runProfile(t, "blackscholes", networks.PointToPoint)
	d := m.Directory()
	invPerWrite := float64(d.InvalidationsSent) / float64(d.WriteMisses+1)
	if invPerWrite > 0.3 {
		t.Fatalf("blackscholes invalidations per write miss = %.2f, want rare", invPerWrite)
	}
}

func TestWritebacksOccurWhenCacheOverflows(t *testing.T) {
	// Shrink the L2 so the streaming write kernel overflows it and must
	// write dirty victims back to their homes.
	prof, err := trace.ProfileByName("radix", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.CoresPerSite = 2
	p.L2KBPerSite = 16
	eng := sim.NewEngine()
	st := core.NewStats(0)
	net := networks.MustNew(networks.PointToPoint, eng, p, st)
	m := trace.NewMachine(eng, p, net, st, prof)
	m.Run(9)
	if m.Writebacks == 0 {
		t.Fatal("streaming write kernel produced no dirty writebacks")
	}
}

// TestTraceDeterministic pins one workload's runtime and operation count
// on two networks. No golden covers trace mode, so a change in event order
// must show here as a changed figure.
func TestTraceDeterministic(t *testing.T) {
	cases := []struct {
		kind    networks.Kind
		runtime sim.Time
		ops     uint64
	}{
		{networks.PointToPoint, 322775, 19116},
		{networks.TwoPhase, 1673200, 19119},
	}
	prof, _ := trace.ProfileByName("radix", 0.05)
	for _, c := range cases {
		p := core.DefaultParams()
		p.CoresPerSite = 2
		eng := sim.NewEngine()
		st := core.NewStats(0)
		net := networks.MustNew(c.kind, eng, p, st)
		res := trace.NewMachine(eng, p, net, st, prof).Run(4)
		if res.Runtime != c.runtime || res.Ops != c.ops {
			t.Errorf("%s: runtime %d ps, %d ops; want %d ps, %d ops",
				c.kind, int64(res.Runtime), res.Ops, int64(c.runtime), c.ops)
		}
	}
}

func TestTraceOnSlowNetworkTakesLonger(t *testing.T) {
	prof, _ := trace.ProfileByName("swaptions", 0.05)
	run := func(kind networks.Kind) sim.Time {
		p := core.DefaultParams()
		p.CoresPerSite = 2
		eng := sim.NewEngine()
		st := core.NewStats(0)
		net := networks.MustNew(kind, eng, p, st)
		return trace.NewMachine(eng, p, net, st, prof).Run(4).Runtime
	}
	if run(networks.CircuitSwitched) <= run(networks.PointToPoint) {
		t.Fatal("circuit-switched should be slower under trace-driven load")
	}
}
