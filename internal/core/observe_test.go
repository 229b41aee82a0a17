package core

// Regression tests for the measurement-correctness sweep: survivorship
// accounting, utilization clamping when booked service extends past the
// sample point, and the Channel reporting APIs the observability gauges
// read.

import "testing"

// TestStatsInFlight pins the survivorship accounting: injected minus
// delivered minus dropped, per class and in total.
func TestStatsInFlight(t *testing.T) {
	s := NewStats(0)
	a := &Packet{Bytes: 64, Class: ClassData}
	b := &Packet{Bytes: 16, Class: ClassRequest}
	c := &Packet{Bytes: 16, Class: ClassRequest}
	s.StampInjection(a, 0)
	s.StampInjection(b, 0)
	s.StampInjection(c, 0)
	s.RecordDelivery(a, 100)
	s.AddDrop() // c is lost
	if got := s.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := s.ClassInjected(ClassRequest); got != 2 {
		t.Fatalf("ClassInjected(request) = %d, want 2", got)
	}
	if got := s.ClassInFlight(ClassData); got != 0 {
		t.Fatalf("ClassInFlight(data) = %d, want 0", got)
	}
	// Drops are not classified, so both undelivered requests count here.
	if got := s.ClassInFlight(ClassRequest); got != 2 {
		t.Fatalf("ClassInFlight(request) = %d, want 2", got)
	}
}

// TestChannelUtilizationClamped pins the >1-utilization fix: a reservation
// whose booked service extends far past the queried horizon must not make
// the ratio exceed 1.
func TestChannelUtilizationClamped(t *testing.T) {
	ch := NewChannel(1.0) // 1 GB/s → 1000 ps per byte
	ch.Reserve(0, 100)    // busy through t=100000
	if got := ch.Utilization(1000); got != 1 {
		t.Fatalf("Utilization(1000) = %v, want 1 (transmitter busy the whole horizon)", got)
	}
	if got := ch.Utilization(100000); got != 1 {
		t.Fatalf("Utilization(100000) = %v, want exactly 1", got)
	}
	if got := ch.Utilization(200000); got != 0.5 {
		t.Fatalf("Utilization(200000) = %v, want 0.5", got)
	}
	if got := ch.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
}

// TestChannelUtilizationFutureGap: a future-dated reservation leaves the
// transmitter idle before the sample point; the estimate stays in [0, 1].
func TestChannelUtilizationFutureGap(t *testing.T) {
	ch := NewChannel(1.0)
	ch.Reserve(90000, 100) // idle [0, 90000), busy [90000, 190000)
	if got := ch.Utilization(100000); got < 0 || got > 1 {
		t.Fatalf("Utilization(100000) = %v, outside [0, 1]", got)
	}
}

// TestChannelReporting exercises the gauge-facing APIs — BusyTime, Backlog,
// NextFree, SerializationTime — across a mid-run Derate.
func TestChannelReporting(t *testing.T) {
	ch := NewChannel(1.0) // 1000 ps per byte
	start, end := ch.Reserve(0, 10)
	if start != 0 || end != 10000 {
		t.Fatalf("Reserve = (%v, %v), want (0, 10000)", start, end)
	}
	if got := ch.BusyTime(); got != 10000 {
		t.Fatalf("BusyTime = %v, want 10000", got)
	}
	ch.Derate(2)
	if got := ch.SerializationTime(10); got != 20000 {
		t.Fatalf("SerializationTime(10) derated = %v, want 20000", got)
	}
	start, end = ch.Reserve(20000, 10)
	if start != 20000 || end != 40000 {
		t.Fatalf("derated Reserve = (%v, %v), want (20000, 40000)", start, end)
	}
	if got := ch.NextFree(); got != 40000 {
		t.Fatalf("NextFree = %v, want 40000", got)
	}
	if got := ch.BusyTime(); got != 30000 {
		t.Fatalf("BusyTime = %v, want 30000", got)
	}
	if got := ch.Backlog(25000); got != 15000 {
		t.Fatalf("Backlog(25000) = %v, want 15000", got)
	}
	if got := ch.Backlog(40000); got != 0 {
		t.Fatalf("Backlog(40000) = %v, want 0", got)
	}
}
