package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{8, 1, 4, 2}, 1.25, 3, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median has fewer than ten beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{49, 75, true},
		{50, 80, true},
		{99, 80, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		if p, ok := highPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("highPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {20, 10}, {21, 20}, {50, 30}, {75, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestOpenLoopSample(t *testing.T) {
	ms := time.Millisecond
	// On schedule: latency is the service time, no lateness.
	if lat, late := openLoopSample(100*ms, 100*ms, 103*ms); lat != 3*ms || late != 0 {
		t.Errorf("on time: latency %v late %v", lat, late)
	}
	// A stall held the generator for 40 ms: the wait counts against the
	// request although its own service time was 2 ms.
	if lat, late := openLoopSample(100*ms, 140*ms, 142*ms); lat != 42*ms || late != 40*ms {
		t.Errorf("stalled: latency %v late %v", lat, late)
	}
	// A timer that fires a hair early is not negative lateness.
	if _, late := openLoopSample(100*ms, 99*ms, 101*ms); late != 0 {
		t.Errorf("early: late %v", late)
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse(2, 2.5, true); got != 0.25 {
		t.Errorf("slower time: %v", got)
	}
	if got := relWorse(100, 80, false); got != 0.2 {
		t.Errorf("lower throughput: %v", got)
	}
	if got := relWorse(100, 120, false); got != -0.2 {
		t.Errorf("higher throughput: %v", got)
	}
}

func TestCorrectForSteal(t *testing.T) {
	// No steal, or no way to tell the share: the clock's own numbers.
	if got := correctForSteal(2, 3, 0); got != (interval{wall: 2, raw: 2, cpu: 3}) {
		t.Errorf("without steal: %+v", got)
	}
	if got := correctForSteal(2, 0, 1); got.wall != 2 {
		t.Errorf("without CPU time: %+v", got)
	}
	// 3 s of CPU used and 1 s refused: 0.25 s of the 3 were steal's
	// doing, so 2.75 of the 3.75 asked for were given.
	got := correctForSteal(4, 3, 1)
	if math.Abs(got.cpu-2.75) > 1e-12 || math.Abs(got.wall-4*2.75/3.75) > 1e-12 || got.raw != 4 {
		t.Errorf("correctForSteal(4, 3, 1) = %+v", got)
	}
	// A tick of steal against next to no CPU time: the caps hold.
	got = correctForSteal(1, 0.001, 0.5)
	if got.wall != 0.25 || got.cpu != 0.0005 {
		t.Errorf("capped: %+v", got)
	}
}
