package core

import (
	"math"
	"math/bits"

	"macrochip/internal/sim"
)

// LatencyHistogram is a log₂-bucketed latency histogram: bucket i counts
// latencies in [2^i, 2^(i+1)) picoseconds, covering 1 ps to ~106 days in 64
// buckets with ≤2× resolution — sufficient for tail percentiles on curves
// that span five decades between unloaded and saturated operation.
type LatencyHistogram struct {
	buckets [64]uint64
	count   uint64
}

// Add records one latency sample.
func (h *LatencyHistogram) Add(lat sim.Time) {
	if lat < 1 {
		lat = 1
	}
	h.buckets[bits.Len64(uint64(lat))-1]++
	h.count++
}

// Count returns the number of samples.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Percentile returns an estimate of the p-th percentile (0 < p ≤ 100) by
// interpolating within the containing bucket.
func (h *LatencyHistogram) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			// Interpolate linearly inside [2^i, 2^(i+1)).
			lo := uint64(1) << uint(i)
			frac := float64(target-cum) / float64(n)
			return sim.Time(float64(lo) + frac*float64(lo))
		}
		cum += n
	}
	return 0
}

// Median is Percentile(50).
func (h *LatencyHistogram) Median() sim.Time { return h.Percentile(50) }
