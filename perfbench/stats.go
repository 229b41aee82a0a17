package main

import (
	"math"
	"sort"
)

// dist is the distribution of one sampled metric: median and quartiles in
// the 'exclusive' method of Python's statistics.quantiles, plus the range.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
	// Samples are the values in measurement order.
	Samples []float64 `json:"samples"`
}

func describe(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), Samples: samples}
	if len(s) == 0 {
		return d
	}
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Median = percentile(s, 50)
	d.Q1, d.Q3 = d.Median, d.Median
	if len(s) >= 2 {
		d.Q1, d.Q3 = exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	}
	return d
}

// exclusiveQuartile is statistics.quantiles(s, n=4)[k-1] for sorted s.
// It needs at least two samples.
func exclusiveQuartile(s []float64, k int) float64 {
	m := len(s) + 1
	j := k * m / 4
	j = max(1, min(j, len(s)-1))
	delta := float64(k*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// percentile interpolates linearly between the closest ranks of sorted s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// pct sorts a copy of samples and returns its p-th percentile.
func pct(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, p)
}

// maxOf is the largest sample, or 0 for none.
func maxOf(samples []float64) float64 {
	m := 0.0
	for i, v := range samples {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func total(ops []int) int {
	t := 0
	for _, n := range ops {
		t += n
	}
	return t
}
