package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of v (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which is
// what the acceptance rule for run-to-run spread is stated in. It needs
// at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4 // outside 0..4 where Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentileLadder lists the percentiles a latency may be reported at.
var percentileLadder = []float64{50, 75, 80, 90, 95, 99, 99.9}

// highPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it; ok is false when even the median
// has fewer (n < 20), and then only the median should be reported.
func highPercentile(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		if float64(n)*(100-c) >= 1000-1e-6 { // n·(1 − c/100) ≥ 10, safe against rounding
			p, ok = c, true
		}
	}
	return p, ok
}

// percentile is the nearest-rank percentile of v: the smallest value
// with at least p percent of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// openLoopSample turns one request of an open-loop generator into its
// two numbers. Latency runs from the instant the request was due, not
// from when it was actually sent, so a stall that delays later requests
// is charged to them; late is how far behind schedule the generator
// was when it sent the request.
func openLoopSample(due, sent, done time.Duration) (latency, late time.Duration) {
	return done - due, max(sent-due, 0)
}

// relWorse is how much worse b is than a as a share of a, positive when
// worse, for a metric where lower (or higher) is better.
func relWorse(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / a
	}
	return (a - b) / a
}
