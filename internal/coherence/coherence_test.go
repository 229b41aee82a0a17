package coherence_test

import (
	"testing"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/sim"
)

// call adapts a test closure to sim.Handler.
type call func()

func (f call) OnEvent(*sim.Engine, sim.EventArg) { f() }

func setup() (*sim.Engine, core.Params, *coherence.Engine) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	return eng, p, coherence.NewEngine(eng, p, net)
}

func TestMessagesCount(t *testing.T) {
	cases := []struct {
		op   coherence.Op
		want int
	}{
		{coherence.Op{}, 2},
		{coherence.Op{Sharers: []geometry.SiteID{3}, Write: false}, 3},
		{coherence.Op{Sharers: []geometry.SiteID{3, 4, 5}, Write: true}, 8},
		{coherence.Op{Sharers: []geometry.SiteID{3}, Write: true}, 4},
	}
	for _, c := range cases {
		if got := c.op.Messages(); got != c.want {
			t.Errorf("Messages(%v sharers, write=%v) = %d, want %d",
				len(c.op.Sharers), c.op.Write, got, c.want)
		}
	}
}

func TestUnsharedMissLatency(t *testing.T) {
	eng, p, coh := setup()
	var lat sim.Time
	eng.ScheduleCall(0, call(func() {
		coh.Issue(coherence.Op{
			Requester: p.Grid.Site(0, 0), Home: p.Grid.Site(0, 1),
			OnComplete: func(l sim.Time) { lat = l },
		})
	}), sim.EventArg{})
	eng.Run()
	// Request 16 B at 5 GB/s (3.2 ns) + prop 0.225 + directory 2 ns +
	// data 72 B (14.4 ns) + prop 0.225.
	want := sim.FromNanoseconds(3.2+0.225+2+14.4) + sim.FromNanoseconds(0.225)
	if lat != want {
		t.Fatalf("unshared miss latency = %v, want %v", lat, want)
	}
	if coh.Completed != 1 {
		t.Fatalf("completed = %d", coh.Completed)
	}
}

func TestDirtyOwnerForward(t *testing.T) {
	eng, p, coh := setup()
	g := p.Grid
	var lat sim.Time
	eng.ScheduleCall(0, call(func() {
		coh.Issue(coherence.Op{
			Requester: g.Site(0, 0), Home: g.Site(0, 1),
			Sharers: []geometry.SiteID{g.Site(0, 2)}, Write: false,
			OnComplete: func(l sim.Time) { lat = l },
		})
	}), sim.EventArg{})
	eng.Run()
	// Request (3.2 + 0.225) + dir 2 + forward 16 B home→owner (3.2 +
	// 0.225) + data owner→requester (14.4 + 0.45).
	want := sim.FromNanoseconds(3.2 + 0.225 + 2 + 3.2 + 0.225 + 14.4 + 0.45)
	if lat != want {
		t.Fatalf("forward latency = %v, want %v", lat, want)
	}
}

func TestInvalidationWaitsForAllAcks(t *testing.T) {
	eng, p, coh := setup()
	g := p.Grid
	// Requester at (0,0), home adjacent, sharers at increasing distances:
	// completion is gated by the farthest ack.
	var lat sim.Time
	sharers := []geometry.SiteID{g.Site(0, 2), g.Site(3, 3), g.Site(7, 7)}
	eng.ScheduleCall(0, call(func() {
		coh.Issue(coherence.Op{
			Requester: g.Site(0, 0), Home: g.Site(0, 1),
			Sharers: sharers, Write: true,
			OnComplete: func(l sim.Time) { lat = l },
		})
	}), sim.EventArg{})
	eng.Run()
	// Completion is gated by the slower of the data reply and the farthest
	// ack chain. Here the 72 B data serialization dominates: request (3.2 +
	// 0.225) + directory 2 + data (14.4 + 0.225). The farthest ack chain
	// (inv 3.2 + 2.925, ack 3.2 + 3.15 = 12.475 ns after the directory)
	// finishes earlier.
	reqPhase := sim.FromNanoseconds(3.2 + 0.225 + 2)
	data := reqPhase + sim.FromNanoseconds(14.4+0.225)
	ackChain := reqPhase + sim.FromNanoseconds(3.2+2.925+3.2+3.15)
	want := data
	if ackChain > want {
		want = ackChain
	}
	if lat != want {
		t.Fatalf("invalidation latency = %v, want %v", lat, want)
	}
}

func TestOnIssuedFiresBeforeCompletion(t *testing.T) {
	eng, p, coh := setup()
	var issuedAt, doneAt sim.Time = -1, -1
	eng.ScheduleCall(0, call(func() {
		coh.Issue(coherence.Op{
			Requester: p.Grid.Site(0, 0), Home: p.Grid.Site(4, 4),
			OnIssued:   func() { issuedAt = eng.Now() },
			OnComplete: func(sim.Time) { doneAt = eng.Now() },
		})
	}), sim.EventArg{})
	eng.Run()
	if issuedAt != 0 {
		t.Fatalf("issued at %v, want 0 (MSHR free)", issuedAt)
	}
	if doneAt <= issuedAt {
		t.Fatal("completion did not follow issue")
	}
}

func TestMSHRLimitQueues(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	p.MSHRsPerSite = 2
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	coh := coherence.NewEngine(eng, p, net)
	issued := 0
	completed := 0
	eng.ScheduleCall(0, call(func() {
		for i := 0; i < 5; i++ {
			coh.Issue(coherence.Op{
				Requester: 0, Home: geometry.SiteID(i + 1),
				OnIssued:   func() { issued++ },
				OnComplete: func(sim.Time) { completed++ },
			})
		}
		if issued != 2 {
			t.Errorf("issued %d immediately, want 2 (MSHR limit)", issued)
		}
		if got := coh.QueuedAt(0); got != 3 {
			t.Errorf("queued = %d, want 3", got)
		}
		if got := coh.OutstandingAt(0); got != 2 {
			t.Errorf("outstanding = %d, want 2", got)
		}
	}), sim.EventArg{})
	eng.Run()
	if issued != 5 || completed != 5 {
		t.Fatalf("issued=%d completed=%d, want 5/5", issued, completed)
	}
	if coh.QueuedAt(0) != 0 || coh.OutstandingAt(0) != 0 {
		t.Fatal("MSHR accounting did not drain")
	}
}

func TestLatencyAccounting(t *testing.T) {
	eng, p, coh := setup()
	eng.ScheduleCall(0, call(func() {
		for i := 1; i <= 3; i++ {
			coh.Issue(coherence.Op{Requester: 0, Home: geometry.SiteID(i)})
		}
	}), sim.EventArg{})
	eng.Run()
	if coh.Completed != 3 {
		t.Fatalf("completed = %d", coh.Completed)
	}
	if coh.MeanLatency() <= 0 || coh.MaxLatency < coh.MeanLatency() {
		t.Fatalf("latency stats implausible: mean=%v max=%v", coh.MeanLatency(), coh.MaxLatency)
	}
	_ = p
}

func TestIntraSiteOperation(t *testing.T) {
	// Requester == home: both messages use the loop-back link.
	eng, p, coh := setup()
	var lat sim.Time
	eng.ScheduleCall(0, call(func() {
		coh.Issue(coherence.Op{
			Requester: 5, Home: 5,
			OnComplete: func(l sim.Time) { lat = l },
		})
	}), sim.EventArg{})
	eng.Run()
	want := 2*p.Cycles(1) + p.Cycles(p.DirectoryLookupCycles)
	if lat != want {
		t.Fatalf("intra-site op latency = %v, want %v", lat, want)
	}
}

func TestCoherenceSteadyStateAllocs(t *testing.T) {
	// The delivery chain is closure-free (pointer-shaped DeliverHandlers over
	// the tracker), the Op travels by value, and trackers and packets come
	// back through the engine's free lists, so once those lists have grown
	// a steady-state miss allocates nothing: neither an unshared miss nor an
	// invalidating write with its ack chains. Reintroducing a per-message
	// closure or a per-operation object fails this at once.
	eng, p, coh := setup()
	g := p.Grid
	issueUnshared := func() {
		coh.Issue(coherence.Op{Requester: 0, Home: 1})
	}
	stepUnshared := func() {
		eng.ScheduleCall(0, call(issueUnshared), sim.EventArg{})
		eng.Run()
	}
	stepUnshared() // prime queue capacity, path tables and free lists
	if allocs := testing.AllocsPerRun(200, stepUnshared); allocs != 0 {
		t.Fatalf("unshared coherence op allocated %.1f, want 0", allocs)
	}

	sharers := []geometry.SiteID{g.Site(0, 2), g.Site(3, 3)}
	issueWrite := func() {
		coh.Issue(coherence.Op{Requester: 0, Home: 1, Sharers: sharers, Write: true})
	}
	stepWrite := func() {
		eng.ScheduleCall(0, call(issueWrite), sim.EventArg{})
		eng.Run()
	}
	stepWrite()
	if allocs := testing.AllocsPerRun(200, stepWrite); allocs != 0 {
		t.Fatalf("2-sharer invalidating write allocated %.1f, want 0", allocs)
	}
	if coh.Completed == 0 {
		t.Fatal("no operations completed")
	}
}
