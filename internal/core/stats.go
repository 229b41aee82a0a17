package core

import (
	"fmt"

	"macrochip/internal/sim"
)

// Stats accumulates delivery latency, throughput, and energy-relevant event
// counts for one network run. A single Stats sink is shared by a network and
// its traffic source; the harness reads it after the run.
//
// Measurement windowing: latency and throughput statistics only include
// packets *injected* at or after WarmupStart, so queue fill during warmup
// does not bias the steady-state numbers.
type Stats struct {
	// WarmupStart gates measurement; packets born earlier are delivered but
	// not counted.
	WarmupStart sim.Time
	// MeasureEnd, when non-zero, closes the throughput window: deliveries
	// after it still count toward latency (they were legitimately slow) but
	// not toward accepted throughput, so the post-injection drain phase
	// cannot inflate the bandwidth numbers.
	MeasureEnd sim.Time
	// Horizon, when positive, is the time at which the run ends: the
	// deadline of the engine's RunUntil, past which nothing is dispatched.
	// DeliverAfter then records each delivery when it is scheduled instead
	// of filing an event for it. Set it only when nothing reads the sink
	// before the run ends, and when every packet's Deliver handler ignores
	// when it runs (it is called at scheduling time, with the delivery's
	// own timestamp). Zero keeps one kernel event per delivery.
	Horizon sim.Time
	// Recorded counts the deliveries DeliverAfter recorded without an
	// event. The engine's dispatch count plus Recorded equals what the
	// same run dispatches with Horizon zero.
	Recorded uint64

	Injected     uint64
	Delivered    uint64
	MeasuredPkts uint64

	// Latency accumulators over measured packets (ps): the sum for the
	// mean, the maximum, and the histogram for percentiles. Each is
	// independent of the order deliveries are recorded in; the sum is an
	// integer for that reason, since a float sum past 2⁵³ ps rounds.
	latencySum sim.Time
	latencyMax sim.Time
	hist       LatencyHistogram

	// Throughput accounting: bytes of measured packets delivered inside the
	// [WarmupStart, MeasureEnd] window.
	WindowBytes uint64

	// Energy-relevant counters (whole run, not windowed: energy integrates
	// over everything that happened).
	//
	// OpticalTraversals is bytes × optical hops: each entry is one byte
	// modulated and received once. RouterBytes is bytes passing through an
	// electronic forwarding router. ArbMessages counts arbitration/control
	// network messages (two-phase requests+notifications, circuit setup
	// flits × hops).
	OpticalTraversalBytes uint64
	RouterBytes           uint64
	ArbMessages           uint64

	// Fault/recovery counters (whole run, like the energy counters).
	//
	// Dropped counts packets lost to injected faults (stamped as injected,
	// never delivered). Retries counts retransmission attempts by the
	// recovery layer (open-loop packet resends). Aborts counts packets
	// abandoned after exhausting their retry budget.
	Dropped uint64
	Retries uint64
	Aborts  uint64

	// PerClass delivery counts.
	PerClass [numClasses]uint64
	// injectedPerClass mirrors Injected by message class, so the
	// observability layer can expose per-class in-flight counts.
	injectedPerClass [numClasses]uint64
}

// NewStats returns an empty sink with measurement starting at warmup.
func NewStats(warmup sim.Time) *Stats { return &Stats{WarmupStart: warmup} }

// StampInjection assigns the packet its birth time and counts the
// injection. Networks call it at the top of Inject.
func (s *Stats) StampInjection(p *Packet, now sim.Time) {
	p.Born = now
	s.Injected++
	s.injectedPerClass[p.Class]++
}

// DeliverAfter delivers p delay from now; networks hand every packet
// whose arrival needs no further model step to it. With Horizon zero it
// schedules the delivery event (s.OnEvent). With Horizon set it records a
// delivery that lands at or before the horizon at once, at the time it
// lands, and counts it in Recorded; one that lands later is dropped, as
// RunUntil(Horizon) would leave its event undispatched. Either way p is
// handed over: the caller reads what it needs from p first.
func (s *Stats) DeliverAfter(e *sim.Engine, delay sim.Duration, p *Packet) {
	if s.Horizon <= 0 {
		e.ScheduleCall(delay, s, sim.EventArg{Ptr: p})
		return
	}
	if delay < 0 {
		panic(fmt.Sprintf("core: negative delivery delay %v", delay))
	}
	if delay <= s.Horizon-e.Now() {
		s.Recorded++
		s.RecordDelivery(p, e.Now()+delay)
	}
}

// OnEvent implements sim.Handler: the delivery event DeliverAfter
// schedules for the packet in arg.Ptr when Horizon is zero, so a delivery
// costs no closure. The packet is handed over at dispatch: the handler
// must be the last holder.
func (s *Stats) OnEvent(e *sim.Engine, arg sim.EventArg) {
	s.RecordDelivery(arg.Ptr.(*Packet), e.Now())
}

// RecordDelivery notes a completed delivery at time `at` and invokes the
// packet's Deliver callback.
func (s *Stats) RecordDelivery(p *Packet, at sim.Time) {
	s.Delivered++
	s.PerClass[p.Class]++
	if p.Born >= s.WarmupStart {
		s.MeasuredPkts++
		lat := at - p.Born
		s.latencySum += lat
		if lat > s.latencyMax {
			s.latencyMax = lat
		}
		s.hist.Add(lat)
		if s.MeasureEnd == 0 || at <= s.MeasureEnd {
			s.WindowBytes += uint64(p.Bytes)
		}
	}
	if p.Deliver != nil {
		p.Deliver.OnDeliver(p, at)
	}
}

// AddOpticalTraversal charges one optical hop of `bytes` bytes (one
// modulation + one reception).
func (s *Stats) AddOpticalTraversal(bytes int) {
	s.OpticalTraversalBytes += uint64(bytes)
}

// AddRouterBytes charges an electronic router traversal.
func (s *Stats) AddRouterBytes(bytes int) { s.RouterBytes += uint64(bytes) }

// AddArbMessage counts one arbitration/control message hop.
func (s *Stats) AddArbMessage() { s.ArbMessages++ }

// AddDrop counts one packet lost to an injected fault.
func (s *Stats) AddDrop() { s.Dropped++ }

// AddRetry counts one retransmission attempt by a recovery layer.
func (s *Stats) AddRetry() { s.Retries++ }

// AddAbort counts one packet abandoned after retry exhaustion.
func (s *Stats) AddAbort() { s.Aborts++ }

// Availability is the fraction of injection attempts that were delivered —
// the resilience study's per-run availability metric. Dropped and still-in-
// flight packets count against it; retransmissions count as fresh attempts.
// A run with no injections reports 1 (vacuously available).
func (s *Stats) Availability() float64 {
	if s.Injected == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Injected)
}

// InFlight reports packets injected but neither delivered nor dropped —
// at a drain cutoff these are the survivors whose (high) latencies never
// made it into the statistics, so load-sweep results must surface the
// count rather than silently pretend the sample is complete.
func (s *Stats) InFlight() uint64 {
	return s.Injected - s.Delivered - s.Dropped
}

// ClassInjected reports injections of one message class.
func (s *Stats) ClassInjected(c MsgClass) uint64 { return s.injectedPerClass[c] }

// ClassInFlight reports undelivered injections of one message class. Drops
// are not classified per message class, so dropped packets remain counted
// here until the run ends (documented bias, fine for occupancy gauges).
func (s *Stats) ClassInFlight(c MsgClass) uint64 {
	return s.injectedPerClass[c] - s.PerClass[c]
}

// MeanLatency returns the average measured latency.
func (s *Stats) MeanLatency() sim.Time {
	if s.MeasuredPkts == 0 {
		return 0
	}
	return sim.Time(float64(s.latencySum) / float64(s.MeasuredPkts))
}

// MaxLatency returns the worst measured latency.
func (s *Stats) MaxLatency() sim.Time { return s.latencyMax }

// LatencyPercentile estimates the p-th percentile of measured latency from
// a log₂-bucketed histogram (≤2× bucket resolution).
func (s *Stats) LatencyPercentile(p float64) sim.Time { return s.hist.Percentile(p) }

// ThroughputKnown reports whether the sink has a closed measurement window,
// i.e. whether ThroughputGBs may be called.
func (s *Stats) ThroughputKnown() bool { return s.MeasureEnd > s.WarmupStart }

// ThroughputGBs returns the accepted throughput (total, all sites) in GB/s:
// window bytes over the measurement window. It panics if MeasureEnd was
// never set (or closes the window before WarmupStart): without a closed
// window accepted throughput is undefined, and the old quiet zero made
// downstream comparisons such as LoadPoint.Saturated (thru < 0.90×offered)
// report spurious saturation.
func (s *Stats) ThroughputGBs() float64 {
	if !s.ThroughputKnown() {
		panic(fmt.Sprintf("core: ThroughputGBs with open measurement window (WarmupStart=%v MeasureEnd=%v); set Stats.MeasureEnd before reading throughput", s.WarmupStart, s.MeasureEnd))
	}
	window := s.MeasureEnd - s.WarmupStart
	// bytes/ps → GB/s: 1 byte/ps = 1000 GB/s.
	return float64(s.WindowBytes) / float64(window) * 1000
}

// String summarizes the sink.
func (s *Stats) String() string {
	thru := "n/a"
	if s.ThroughputKnown() {
		thru = fmt.Sprintf("%.1fGB/s", s.ThroughputGBs())
	}
	return fmt.Sprintf("injected=%d delivered=%d measured=%d meanLat=%v maxLat=%v thru=%s",
		s.Injected, s.Delivered, s.MeasuredPkts, s.MeanLatency(), s.MaxLatency(), thru)
}
