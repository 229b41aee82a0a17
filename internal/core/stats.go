package core

import (
	"fmt"
	"math"

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

	nextID uint64

	Injected     uint64
	Delivered    uint64
	MeasuredPkts uint64

	// Latency accumulators over measured packets (ps). The mean comes from
	// the plain sum; the variance runs on Welford's algorithm (running
	// mean + M2), because the naive latencySqSum/n − mean² form
	// catastrophically cancels when latencies sit on a large common offset
	// with small spread — exactly the regime of picosecond-resolution
	// timestamps late in a long run.
	latencySum  float64
	welfordMean float64
	welfordM2   float64
	latencyMax  sim.Time
	hist        LatencyHistogram

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

// StampInjection assigns the packet its ID and birth time. Networks call it
// at the top of Inject.
func (s *Stats) StampInjection(p *Packet, now sim.Time) {
	s.nextID++
	p.ID = s.nextID
	p.Born = now
	s.Injected++
	s.injectedPerClass[p.Class]++
}

// OnEvent implements sim.Handler: a scheduled delivery event for the packet
// in arg.Ptr. Every network's hot path schedules deliveries through this
// single handler (eng.ScheduleCall(delay, stats, sim.EventArg{Ptr: p})), so
// the per-packet "record delivery later" pattern costs no closure. The
// packet is handed over at dispatch: the handler must be the last holder.
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
		s.latencySum += float64(lat)
		d := float64(lat) - s.welfordMean
		s.welfordMean += d / float64(s.MeasuredPkts)
		s.welfordM2 += d * (float64(lat) - s.welfordMean)
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
	return sim.Time(s.latencySum / float64(s.MeasuredPkts))
}

// MaxLatency returns the worst measured latency.
func (s *Stats) MaxLatency() sim.Time { return s.latencyMax }

// LatencyStdDev returns the (population) standard deviation of measured
// latency, computed with Welford's algorithm: numerically stable even when
// every latency shares a huge offset with tiny spread, where the naive
// sum-of-squares form cancels to garbage (pinned by a regression test).
func (s *Stats) LatencyStdDev() sim.Time {
	n := float64(s.MeasuredPkts)
	if n < 2 {
		return 0
	}
	v := s.welfordM2 / n
	if v < 0 {
		v = 0
	}
	return sim.Time(math.Sqrt(v))
}

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
