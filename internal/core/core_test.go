package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"macrochip/internal/sim"
)

// deliverFn adapts a test closure to DeliverHandler.
type deliverFn func(*Packet, sim.Time)

func (f deliverFn) OnDeliver(p *Packet, at sim.Time) { f(p, at) }

func TestDefaultParamsMatchTable4(t *testing.T) {
	p := DefaultParams()
	if p.Grid.Sites() != 64 {
		t.Fatalf("sites = %d, want 64", p.Grid.Sites())
	}
	if p.CoresPerSite != 8 || p.L2KBPerSite != 256 {
		t.Fatal("cores/L2 config wrong")
	}
	if p.SiteBandwidthGBs != 320 {
		t.Fatalf("site bandwidth = %v, want 320", p.SiteBandwidthGBs)
	}
	if got := p.PeakBandwidthGBs(); got != 20480 {
		t.Fatalf("peak bandwidth = %v GB/s, want 20480 (20 TB/s)", got)
	}
	if p.CyclePS() != 200 {
		t.Fatalf("cycle = %dps, want 200", int64(p.CyclePS()))
	}
	if p.Cycles(80) != 16*sim.Nanosecond {
		t.Fatalf("80 cycles = %v, want 16ns", p.Cycles(80))
	}
	if got := p.PtPChannelGBs(); got != 5 {
		t.Fatalf("PtP channel = %v GB/s, want 5", got)
	}
}

func TestPropDelay(t *testing.T) {
	p := DefaultParams()
	a, b := p.Grid.Site(0, 0), p.Grid.Site(7, 7)
	// 14 pitches × 2.25 cm × 0.1 ns/cm = 3.15 ns.
	if got := p.PropDelay(a, b); got != sim.FromNanoseconds(3.15) {
		t.Fatalf("corner prop delay = %v, want 3.150ns", got)
	}
	if got := p.PropDelay(a, a); got != 0 {
		t.Fatalf("self prop delay = %v", got)
	}
}

func TestChannelSerialization(t *testing.T) {
	// 5 GB/s: 64 bytes take 12.8 ns.
	ch := NewChannel(5)
	if got := ch.SerializationTime(64); got != sim.FromNanoseconds(12.8) {
		t.Fatalf("64B @ 5GB/s = %v, want 12.800ns", got)
	}
	// 320 GB/s: 64 bytes take 0.2 ns (one cycle — the token-ring claim).
	ch = NewChannel(320)
	if got := ch.SerializationTime(64); got != 200*sim.Picosecond {
		t.Fatalf("64B @ 320GB/s = %v, want 200ps", got)
	}
}

func TestChannelFIFO(t *testing.T) {
	ch := NewChannel(1) // 1 GB/s: 1 ns per byte
	s1, e1 := ch.Reserve(0, 10)
	if s1 != 0 || e1 != 10*sim.Nanosecond {
		t.Fatalf("first reservation [%v,%v]", s1, e1)
	}
	// Arrives while busy: queues behind.
	s2, e2 := ch.Reserve(3*sim.Nanosecond, 5)
	if s2 != 10*sim.Nanosecond || e2 != 15*sim.Nanosecond {
		t.Fatalf("second reservation [%v,%v], want [10ns,15ns]", s2, e2)
	}
	// Arrives after idle gap: starts immediately.
	s3, _ := ch.Reserve(20*sim.Nanosecond, 1)
	if s3 != 20*sim.Nanosecond {
		t.Fatalf("third start %v, want 20ns", s3)
	}
	if ch.BusyTime() != 16*sim.Nanosecond {
		t.Fatalf("busy = %v, want 16ns", ch.BusyTime())
	}
	if got := ch.Utilization(32 * sim.Nanosecond); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestChannelBacklog(t *testing.T) {
	ch := NewChannel(1)
	ch.Reserve(0, 100)
	if got := ch.Backlog(40 * sim.Nanosecond); got != 60*sim.Nanosecond {
		t.Fatalf("backlog = %v, want 60ns", got)
	}
	if got := ch.Backlog(200 * sim.Nanosecond); got != 0 {
		t.Fatalf("backlog after drain = %v, want 0", got)
	}
}

func TestChannelInvariantNoOverlap(t *testing.T) {
	// Property: reservations never overlap and always respect arrival time.
	f := func(arrivals []uint16, sizes []uint8) bool {
		ch := NewChannel(10)
		var at sim.Time
		prevEnd := sim.Time(0)
		for i, a := range arrivals {
			at += sim.Time(a)
			size := 1
			if i < len(sizes) {
				size = int(sizes[i])%256 + 1
			}
			s, e := ch.Reserve(at, size)
			if s < at || s < prevEnd || e <= s {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChannelDerate(t *testing.T) {
	// A derated channel stretches serialization by the factor until it is
	// derated back to 1.
	ch := NewChannel(5)
	base := ch.SerializationTime(64)
	ch.Derate(4)
	if got := ch.SerializationTime(64); got != 4*base {
		t.Fatalf("derated 64B = %v, want %v", got, 4*base)
	}
	if ch.DerateFactor() != 4 {
		t.Fatalf("DerateFactor = %v", ch.DerateFactor())
	}
	ch.Derate(1)
	if got := ch.SerializationTime(64); got != base {
		t.Fatalf("restored 64B = %v, want %v", got, base)
	}
}

func TestChannelDerateBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Derate(0.5) did not panic — derating must never speed a channel up")
		}
	}()
	NewChannel(5).Derate(0.5)
}

func TestStatsDropRetryAbortCounters(t *testing.T) {
	s := NewStats(0)
	s.AddDrop()
	s.AddRetry()
	s.AddRetry()
	s.AddAbort()
	if s.Dropped != 1 || s.Retries != 2 || s.Aborts != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/2/1", s.Dropped, s.Retries, s.Aborts)
	}
}

func TestStatsAvailability(t *testing.T) {
	s := NewStats(0)
	if got := s.Availability(); got != 1 {
		t.Fatalf("empty availability = %v, want 1", got)
	}
	s.Injected, s.Delivered = 4, 3
	if got := s.Availability(); got != 0.75 {
		t.Fatalf("availability = %v, want 0.75", got)
	}
}

func TestChannelZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChannel(0) did not panic")
		}
	}()
	NewChannel(0)
}

func TestStatsLatency(t *testing.T) {
	s := NewStats(0)
	p1 := &Packet{Bytes: 64}
	s.StampInjection(p1, 0)
	s.RecordDelivery(p1, 100*sim.Nanosecond)
	p2 := &Packet{Bytes: 64}
	s.StampInjection(p2, 50*sim.Nanosecond)
	s.RecordDelivery(p2, 250*sim.Nanosecond)

	if s.MeanLatency() != 150*sim.Nanosecond {
		t.Fatalf("mean = %v, want 150ns", s.MeanLatency())
	}
	if s.MaxLatency() != 200*sim.Nanosecond {
		t.Fatalf("max = %v, want 200ns", s.MaxLatency())
	}
}

// TestStatsMeanLatencyOrderFree: the mean does not depend on the order
// deliveries are recorded in, even where a float sum of the same latencies
// rounds (partial sums past 2⁵³ ps), so recording a delivery when it is
// scheduled cannot move it.
func TestStatsMeanLatencyOrderFree(t *testing.T) {
	lats := []sim.Time{1 << 53, 1, 1, 1, 1}
	mean := func(order ...int) sim.Time {
		s := NewStats(0)
		for _, i := range order {
			p := &Packet{Bytes: 64}
			s.StampInjection(p, 0)
			s.RecordDelivery(p, lats[i])
		}
		return s.MeanLatency()
	}
	want := sim.Time((1<<53 + 4) / 5)
	if fwd, rev := mean(0, 1, 2, 3, 4), mean(4, 3, 2, 1, 0); fwd != want || rev != want {
		t.Fatalf("mean %d ps recorded largest first, %d ps largest last; want %d ps", fwd, rev, want)
	}
}

// TestStatsDeliverAfter: with Horizon zero a delivery is a kernel event;
// with Horizon set it is recorded at once, at the time it lands, when it
// lands at or before the horizon, and dropped when it lands later, as
// RunUntil(Horizon) leaves its event undispatched.
func TestStatsDeliverAfter(t *testing.T) {
	const start, horizon = 10 * sim.Nanosecond, 100 * sim.Nanosecond
	delays := []sim.Duration{0, 30 * sim.Nanosecond, horizon - start, horizon - start + 1}
	wantAt := []sim.Time{start, start + 30*sim.Nanosecond, horizon}
	for _, h := range []sim.Time{0, horizon} {
		eng := sim.NewEngine()
		s := NewStats(0)
		s.Horizon = h
		var at []sim.Time
		record := deliverFn(func(_ *Packet, when sim.Time) { at = append(at, when) })
		eng.RunUntil(start)
		for _, d := range delays {
			p := &Packet{Bytes: 64, Deliver: record}
			s.StampInjection(p, eng.Now())
			s.DeliverAfter(eng, d, p)
		}
		eng.RunUntil(horizon)
		if !slices.Equal(at, wantAt) || s.Delivered != 3 || s.InFlight() != 1 {
			t.Fatalf("horizon %v: delivered %d at %v (in flight %d), want 3 at %v (1)", h, s.Delivered, at, s.InFlight(), wantAt)
		}
		events, recorded, pending := eng.Executed(), s.Recorded, eng.Pending()
		if h == 0 && (events != 3 || recorded != 0 || pending != 1) || h > 0 && (events != 0 || recorded != 3 || pending != 0) {
			t.Fatalf("horizon %v: %d events, %d recorded, %d pending", h, events, recorded, pending)
		}
	}
}

func TestStatsWarmupWindow(t *testing.T) {
	s := NewStats(100 * sim.Nanosecond)
	early := &Packet{Bytes: 64}
	s.StampInjection(early, 50*sim.Nanosecond)
	s.RecordDelivery(early, 80*sim.Nanosecond)
	late := &Packet{Bytes: 64}
	s.StampInjection(late, 150*sim.Nanosecond)
	s.RecordDelivery(late, 200*sim.Nanosecond)

	if s.Delivered != 2 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	if s.MeasuredPkts != 1 {
		t.Fatalf("measured = %d, want 1 (warmup exclusion)", s.MeasuredPkts)
	}
	if s.MeanLatency() != 50*sim.Nanosecond {
		t.Fatalf("mean = %v, want 50ns", s.MeanLatency())
	}
}

func TestStatsThroughput(t *testing.T) {
	s := NewStats(0)
	s.MeasureEnd = 10 * sim.Nanosecond
	// Deliver 10 packets of 64B inside the window plus one after it; only
	// in-window deliveries count toward accepted throughput.
	for i := 0; i < 10; i++ {
		p := &Packet{Bytes: 64}
		s.StampInjection(p, sim.Time(i)*sim.Nanosecond)
		s.RecordDelivery(p, sim.Time(i+1)*sim.Nanosecond)
	}
	late := &Packet{Bytes: 64}
	s.StampInjection(late, 9*sim.Nanosecond)
	s.RecordDelivery(late, 15*sim.Nanosecond)
	// 640 bytes over the 10 ns window = 64 GB/s.
	if got := s.ThroughputGBs(); math.Abs(got-64.0) > 0.01 {
		t.Fatalf("throughput = %v GB/s, want 64", got)
	}
	// The late delivery still counts toward latency.
	if s.MeasuredPkts != 11 {
		t.Fatalf("measured = %d, want 11", s.MeasuredPkts)
	}
}

func TestStatsOnDeliverCallback(t *testing.T) {
	s := NewStats(0)
	called := false
	p := &Packet{Bytes: 1, Deliver: deliverFn(func(pp *Packet, at sim.Time) {
		called = true
		if at != 7*sim.Nanosecond {
			t.Errorf("callback at %v, want 7ns", at)
		}
	})}
	s.StampInjection(p, 0)
	s.RecordDelivery(p, 7*sim.Nanosecond)
	if !called {
		t.Fatal("OnDeliver not called")
	}
}

// TestPacketSize pins Packet at 56 bytes: saturated figure-6 points hold
// hundreds of thousands of packets in flight. Packets come from pool blocks
// (sim.Pool) that pack as many as fit one 4-KiB size class, so packet
// memory follows the packet's size, not a per-packet size class; a field
// no output reads costs bytes in every block.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d bytes, want 56", got)
	}
}

func TestStatsEnergyCounters(t *testing.T) {
	s := NewStats(0)
	s.AddOpticalTraversal(64)
	s.AddOpticalTraversal(16)
	s.AddRouterBytes(64)
	s.AddArbMessage()
	if s.OpticalTraversalBytes != 80 || s.RouterBytes != 64 || s.ArbMessages != 1 {
		t.Fatalf("counters = %d/%d/%d", s.OpticalTraversalBytes, s.RouterBytes, s.ArbMessages)
	}
}

func TestMsgClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassRequest.String() != "request" ||
		ClassInvalidate.String() != "invalidate" || ClassAck.String() != "ack" {
		t.Fatal("class names wrong")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h LatencyHistogram
	if h.Percentile(50) != 0 {
		t.Fatal("empty histogram percentile nonzero")
	}
	// 1000 samples at exactly 1024 ps: every percentile lands in the
	// [1024, 2048) bucket.
	for i := 0; i < 1000; i++ {
		h.Add(1024 * sim.Picosecond)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		v := h.Percentile(p)
		if v < 1024 || v > 2048 {
			t.Fatalf("p%v = %v, want within the [1024,2048]ps bucket", p, v)
		}
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramOrdering(t *testing.T) {
	var h LatencyHistogram
	// 90 fast samples, 10 slow ones: p50 ≪ p99.
	for i := 0; i < 90; i++ {
		h.Add(10 * sim.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(10 * sim.Microsecond)
	}
	p50, p99 := h.Median(), h.Percentile(99)
	if p50 >= 100*sim.Nanosecond {
		t.Fatalf("median = %v, want ~10ns bucket", p50)
	}
	if p99 < sim.Microsecond {
		t.Fatalf("p99 = %v, want in the slow tail", p99)
	}
}

func TestStatsPercentileIntegration(t *testing.T) {
	s := NewStats(0)
	for i := 1; i <= 100; i++ {
		p := &Packet{Bytes: 64}
		s.StampInjection(p, 0)
		s.RecordDelivery(p, sim.Time(i)*sim.Nanosecond)
	}
	p95 := s.LatencyPercentile(95)
	if p95 < 60*sim.Nanosecond || p95 > 130*sim.Nanosecond {
		t.Fatalf("p95 = %v, want around the 95ns bucket (log₂ resolution)", p95)
	}
}

func TestHistogramClampsTinyLatency(t *testing.T) {
	var h LatencyHistogram
	h.Add(0)
	if h.Count() != 1 {
		t.Fatal("zero-latency sample dropped")
	}
	if v := h.Percentile(100); v < 1 || v > 2 {
		t.Fatalf("clamped sample percentile = %v", v)
	}
}

func TestStatsThroughputOpenWindowPanics(t *testing.T) {
	// Regression: an open measurement window used to yield a silent zero,
	// which made thru < 0.90*offered comparisons report spurious saturation.
	s := NewStats(0)
	if s.ThroughputKnown() {
		t.Fatal("throughput known with MeasureEnd unset")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ThroughputGBs with MeasureEnd unset did not panic")
		}
	}()
	s.ThroughputGBs()
}

func TestStatsThroughputInvertedWindowPanics(t *testing.T) {
	s := NewStats(10 * sim.Nanosecond)
	s.MeasureEnd = 5 * sim.Nanosecond
	defer func() {
		if recover() == nil {
			t.Fatal("ThroughputGBs with MeasureEnd before WarmupStart did not panic")
		}
	}()
	s.ThroughputGBs()
}

func TestStatsStringOpenWindow(t *testing.T) {
	// String must stay usable as a debug summary even before the window is
	// closed (benchmark runs never set MeasureEnd).
	s := NewStats(0)
	if got := s.String(); !strings.Contains(got, "thru=n/a") {
		t.Fatalf("open-window String() = %q, want thru=n/a", got)
	}
	s.MeasureEnd = 10 * sim.Nanosecond
	if got := s.String(); !strings.Contains(got, "GB/s") {
		t.Fatalf("closed-window String() = %q, want a GB/s figure", got)
	}
}
