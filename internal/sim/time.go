// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded event queue (a radix heap) with
// picosecond resolution.
// All network, processor, and coherence models in this repository are built
// on top of it. Determinism is guaranteed by breaking timestamp ties with a
// monotonically increasing sequence number, so two runs with the same seed
// produce identical event orders.
package sim

import "fmt"

// Time is a simulated instant measured in integer picoseconds from the start
// of the run. Using a 64-bit integer gives about 106 days of simulated time,
// far beyond any experiment in this repository, with no floating-point drift.
type Time int64

// Duration is a span of simulated time in picoseconds. It is a distinct name
// for documentation purposes only; Time and Duration are freely convertible.
type Duration = Time

// MaxTime is the last instant of the time axis.
const MaxTime Time = 1<<63 - 1

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "12.800ns" or "1.500us".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// FromNanoseconds converts a floating-point nanosecond quantity to a Time,
// rounding to the nearest picosecond and saturating at ±MaxTime where a
// plain conversion would wrap.
func FromNanoseconds(ns float64) Time {
	if ns < 0 {
		return -FromPicoseconds(-ns * float64(Nanosecond))
	}
	return FromPicoseconds(ns * float64(Nanosecond))
}

// FromPicoseconds rounds a non-negative picosecond quantity to a Time,
// saturating at MaxTime where a plain conversion would wrap negative.
func FromPicoseconds(ps float64) Time {
	if ps < float64(MaxTime) {
		return Time(ps + 0.5)
	}
	return MaxTime
}

// FromSeconds converts a floating-point second quantity to a Time, rounding
// to the nearest picosecond.
func FromSeconds(s float64) Time { return FromNanoseconds(s * 1e9) }
