package main

import (
	"math"
	"sort"
	"time"
)

// Percentiles are nearest-rank: the p-th percentile of n sorted
// samples is the sample at 1-based rank ceil(p/100·n). A tail
// percentile is reported only when at least minBeyond samples lie
// above that rank; otherwise the highest percentile of tailLadder that
// has them is used instead, and the report says which.

const minBeyond = 10

var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supportedPercentile returns want if n samples leave at least
// minBeyond beyond it, else the highest ladder percentile below want
// that does; 50 when none does.
func supportedPercentile(n int, want float64) float64 {
	if n-rank(want, n) >= minBeyond {
		return want
	}
	for _, p := range tailLadder {
		if p < want && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is a sorted sample set.
type dist []float64

func newDist(v []float64) dist {
	d := append(dist(nil), v...)
	sort.Float64s(d)
	return d
}

func durations(ds []time.Duration, unit time.Duration) dist {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return newDist(v)
}

// p is the nearest-rank percentile (0 for no samples).
func (d dist) p(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(p, len(d))-1]
}

// tail is the percentile supportedPercentile allows for want, and its
// value.
func (d dist) tail(want float64) (float64, float64) {
	p := supportedPercentile(len(d), want)
	return p, d.p(p)
}

func median(v []float64) float64 { return newDist(v).p(50) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
