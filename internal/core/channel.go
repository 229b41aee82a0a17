package core

import (
	"fmt"

	"macrochip/internal/sim"
)

// Channel models a fixed-bandwidth FIFO optical (or electronic) link: packets
// serialize one after another at the channel rate. It tracks only the time
// the transmitter is next free, which is sufficient for FIFO service with
// unbounded queueing — the standard open-loop link model.
type Channel struct {
	psPerByte float64
	// effPsPerByte is psPerByte × derate, precomputed when the derate
	// changes so the per-reservation hot path (SerializationTime/Reserve)
	// multiplies once instead of twice.
	effPsPerByte float64
	nextFree     sim.Time
	// busyPS accumulates occupied transmitter time for utilization
	// reporting.
	busyPS sim.Time
	// derate multiplies the per-byte serialization time (≥1; 1 is nominal).
	// The fault subsystem uses it to model thermally detuned modulator
	// rings whose usable bandwidth drops mid-run.
	derate float64
}

// NewChannel returns a channel of the given bandwidth in gigabytes per
// second.
func NewChannel(gbPerSec float64) *Channel {
	if gbPerSec <= 0 {
		panic(fmt.Sprintf("core: channel bandwidth %v GB/s", gbPerSec))
	}
	// 1 GB/s = 1 byte/ns = 1e-3 byte/ps.
	ps := 1e3 / gbPerSec
	return &Channel{psPerByte: ps, effPsPerByte: ps, derate: 1}
}

// Derate scales serialization mid-run: a factor f ≥ 1 multiplies the
// per-byte time for every reservation made after the call (a detuned ring
// modulates fewer usable bits per second). Derate(1) restores the nominal
// rate. Reservations already booked are unaffected.
func (c *Channel) Derate(f float64) {
	if f < 1 {
		panic(fmt.Sprintf("core: channel derate factor %v < 1", f))
	}
	c.derate = f
	c.effPsPerByte = c.psPerByte * f
}

// DerateFactor reports the active serialization multiplier (1 = nominal).
func (c *Channel) DerateFactor() float64 { return c.derate }

// SerializationTime returns the time to clock `bytes` onto the channel at
// the current (possibly derated) rate.
func (c *Channel) SerializationTime(bytes int) sim.Time {
	t := sim.Time(float64(bytes)*c.effPsPerByte + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// Reserve books the channel for a packet of the given size arriving at time
// `at`, and returns the time the transmission starts and the time the last
// byte leaves the transmitter. Calls must have non-decreasing logical order
// (FIFO); `at` values may interleave arbitrarily.
func (c *Channel) Reserve(at sim.Time, bytes int) (start, end sim.Time) {
	start = at
	if c.nextFree > start {
		start = c.nextFree
	}
	ser := c.SerializationTime(bytes)
	end = start + ser
	c.nextFree = end
	c.busyPS += ser
	return start, end
}

// ReserveDuration books the channel for an explicit occupancy (for slotted
// networks whose slots are rounded up from the raw serialization time).
func (c *Channel) ReserveDuration(at sim.Time, dur sim.Time) (start, end sim.Time) {
	if dur < 1 {
		dur = 1
	}
	start = at
	if c.nextFree > start {
		start = c.nextFree
	}
	end = start + dur
	c.nextFree = end
	c.busyPS += dur
	return start, end
}

// NextFree reports when the transmitter becomes idle.
func (c *Channel) NextFree() sim.Time { return c.nextFree }

// Backlog returns how long a packet arriving now would wait before starting
// transmission.
func (c *Channel) Backlog(now sim.Time) sim.Time {
	if c.nextFree <= now {
		return 0
	}
	return c.nextFree - now
}

// BusyTime returns the cumulative transmitter-occupied time.
func (c *Channel) BusyTime() sim.Time { return c.busyPS }

// Utilization returns the fraction of [0, elapsed] the transmitter was
// occupied. busyPS charges a reservation's full serialization at booking
// time, so the raw ratio busyPS/elapsed can exceed 1 whenever the booked
// service extends past the sample point; the not-yet-served tail
// (nextFree − elapsed) is subtracted before dividing. The subtraction is
// exact when the channel is busy at the sample point (FIFO service is
// contiguous up to nextFree) and conservative when a future-dated
// reservation left an idle gap, and the result is clamped to [0, 1] either
// way.
func (c *Channel) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	busy := c.busyPS
	if tail := c.nextFree - elapsed; tail > 0 {
		busy -= tail
	}
	if busy < 0 {
		busy = 0
	}
	if busy > elapsed {
		busy = elapsed
	}
	return float64(busy) / float64(elapsed)
}
