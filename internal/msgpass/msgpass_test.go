package msgpass_test

import (
	"testing"

	"macrochip/internal/core"
	"macrochip/internal/msgpass"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
)

func run(t *testing.T, kind networks.Kind, cfg msgpass.Config) msgpass.Result {
	t.Helper()
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := networks.MustNew(kind, eng, p, st)
	r, err := msgpass.NewRunner(eng, p, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Run()
}

func TestBadConfigs(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := networks.MustNew(networks.PointToPoint, eng, p, st)
	if _, err := msgpass.NewRunner(eng, p, net, msgpass.Config{Pattern: "bogus", MessageBytes: 64, Iterations: 1}); err == nil {
		t.Fatal("bogus pattern accepted")
	}
	if _, err := msgpass.NewRunner(eng, p, net, msgpass.Config{Pattern: msgpass.Ring, MessageBytes: 0, Iterations: 1}); err == nil {
		t.Fatal("zero message size accepted")
	}
}

func TestBytesMoved(t *testing.T) {
	cfg := msgpass.Config{Pattern: msgpass.HaloExchange, MessageBytes: 1024, ComputeNS: 10, Iterations: 3}
	r := run(t, networks.PointToPoint, cfg)
	// 64 sites × 4 neighbors × 1024 B × 3 iterations.
	want := uint64(64 * 4 * 1024 * 3)
	if r.BytesMoved != want {
		t.Fatalf("bytes = %d, want %d", r.BytesMoved, want)
	}
	if r.Runtime <= sim.FromNanoseconds(30) {
		t.Fatalf("runtime %v below compute floor", r.Runtime)
	}
	if r.EffectiveGBs <= 0 {
		t.Fatalf("effective bandwidth = %v", r.EffectiveGBs)
	}
}

func TestAllReduceStages(t *testing.T) {
	cfg := msgpass.Config{Pattern: msgpass.AllReduce, MessageBytes: 256, ComputeNS: 0, Iterations: 2}
	r := run(t, networks.PointToPoint, cfg)
	// log2(64) = 6 stages × 64 messages × 2 iterations.
	want := uint64(6 * 64 * 256 * 2)
	if r.BytesMoved != want {
		t.Fatalf("bytes = %d, want %d", r.BytesMoved, want)
	}
}

func TestComputeOnlyFloor(t *testing.T) {
	// With all patterns the iteration barrier must respect the compute
	// phase even when communication is fast.
	cfg := msgpass.Config{Pattern: msgpass.Ring, MessageBytes: 64, ComputeNS: 100, Iterations: 5}
	r := run(t, networks.PointToPoint, cfg)
	if r.Runtime < sim.FromNanoseconds(500) {
		t.Fatalf("runtime %v below 5×100 ns compute", r.Runtime)
	}
}

func TestCircuitSwitchedAmortizesSetupOnLargeMessages(t *testing.T) {
	// The headline of the future-work study: at cache-line sizes the
	// circuit-switched network is far slower than point-to-point, but at
	// multi-kilobyte messages the setup cost amortizes and the relative gap
	// narrows dramatically.
	gap := func(bytes int) float64 {
		cfg := msgpass.Config{Pattern: msgpass.Ring, MessageBytes: bytes, ComputeNS: 0, Iterations: 4}
		cs := run(t, networks.CircuitSwitched, cfg)
		pp := run(t, networks.PointToPoint, cfg)
		return cs.ExchangeNS / pp.ExchangeNS
	}
	small, large := gap(64), gap(64*1024)
	if large >= small {
		t.Fatalf("circuit-switched gap did not shrink with message size: small=%.2f large=%.2f", small, large)
	}
	if large > 1.1 {
		t.Fatalf("circuit-switched should be near parity at 64 KB messages, gap=%.2f", large)
	}
}

func TestPointToPointBottlenecksOnOneToOneBulk(t *testing.T) {
	// On bulk one-to-one traffic the limited network's 20 GB/s channels
	// beat the point-to-point network's 5 GB/s channels. The ring barrier
	// is gated by the row-crossing messages, which take two
	// store-and-forward legs on the limited network (effective 10 GB/s),
	// so the advantage is 2× per iteration rather than the raw 4× channel
	// ratio.
	cfg := msgpass.Config{Pattern: msgpass.Ring, MessageBytes: 64 * 1024, ComputeNS: 0, Iterations: 2}
	pp := run(t, networks.PointToPoint, cfg)
	lim := run(t, networks.LimitedPtP, cfg)
	ratio := pp.ExchangeNS / lim.ExchangeNS
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("bulk ring limited/ptp advantage = %.2f, want ~2 (forwarded legs gate)", ratio)
	}
	// Halo exchange has no forwarded legs: there the full 4× shows up.
	cfg.Pattern = msgpass.HaloExchange
	pp = run(t, networks.PointToPoint, cfg)
	lim = run(t, networks.LimitedPtP, cfg)
	ratio = pp.ExchangeNS / lim.ExchangeNS
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("bulk halo limited/ptp advantage = %.2f, want ~4", ratio)
	}
}

func TestAllToAllCounts(t *testing.T) {
	cfg := msgpass.Config{Pattern: msgpass.AllToAll, MessageBytes: 128, ComputeNS: 0, Iterations: 1}
	r := run(t, networks.PointToPoint, cfg)
	if r.BytesMoved != uint64(64*63*128) {
		t.Fatalf("bytes = %d", r.BytesMoved)
	}
}

func TestPatternsList(t *testing.T) {
	if len(msgpass.Patterns()) != 4 {
		t.Fatalf("patterns = %v", msgpass.Patterns())
	}
}

// TestDeterministic pins each pattern's runtime and payload on two
// networks. No golden covers message passing, so a change in event order or
// in the barrier bookkeeping must show here as a changed figure.
func TestDeterministic(t *testing.T) {
	cases := []struct {
		kind    networks.Kind
		pattern msgpass.Pattern
		runtime sim.Time
		bytes   uint64
	}{
		{networks.TwoPhase, msgpass.HaloExchange, 142200, 262144},
		{networks.TwoPhase, msgpass.AllToAll, 2052600, 4128768},
		{networks.TwoPhase, msgpass.AllReduce, 236500, 393216},
		{networks.TwoPhase, msgpass.Ring, 52000, 65536},
		{networks.CircuitSwitched, msgpass.HaloExchange, 76150, 262144},
		{networks.CircuitSwitched, msgpass.AllToAll, 2012950, 4128768},
		{networks.CircuitSwitched, msgpass.AllReduce, 526500, 393216},
		{networks.CircuitSwitched, msgpass.Ring, 91100, 65536},
	}
	for _, c := range cases {
		cfg := msgpass.Config{Pattern: c.pattern, MessageBytes: 512, ComputeNS: 5, Iterations: 2}
		r := run(t, c.kind, cfg)
		if r.Runtime != c.runtime || r.BytesMoved != c.bytes {
			t.Errorf("%s %s: runtime %d ps, %d B; want %d ps, %d B",
				c.kind, c.pattern, int64(r.Runtime), r.BytesMoved, int64(c.runtime), c.bytes)
		}
	}
}
