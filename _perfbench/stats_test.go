package main

import (
	"slices"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same inputs.
	cases := []struct {
		xs  []float64
		med float64
		q   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 2, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, 15, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 4, [3]float64{2, 4, 7}},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q, ok := quartiles(c.xs)
		if !ok || q != c.q {
			t.Errorf("quartiles(%v) = %v, %v, want %v", c.xs, q, ok, c.q)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("input reordered to %v", c.xs)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if tl, ok := tailOf(seq(19)); ok {
		t.Fatalf("19 samples: reported %+v, but only 9 lie beyond the median", tl)
	}
	cases := []struct {
		n          int
		percentile float64
		rank       int
	}{
		{20, 50, 10},    // 10 beyond p50
		{99, 50, 50},    // p90 would have 9 beyond
		{100, 90, 90},   // p95 would have 5 beyond
		{1000, 99, 990}, // p99.9 would have 1 beyond
	}
	for _, c := range cases {
		tl, ok := tailOf(seq(c.n))
		if !ok || tl.Percentile != c.percentile || tl.Rank != c.rank || tl.N != c.n || tl.Value != float64(c.rank) {
			t.Errorf("n=%d: got %+v, %v; want p%g at rank %d", c.n, tl, ok, c.percentile, c.rank)
		}
		if beyond := tl.N - tl.Rank; beyond < minBeyondTail {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

// fakeClock is a single timeline the test advances by hand.
type fakeClock struct{ t time.Duration }

func (f *fakeClock) now() time.Duration { return f.t }

func (f *fakeClock) sleepUntil(t time.Duration) { f.t = max(f.t, t) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	c := &fakeClock{}
	const service = 5
	// Operation 2 finds the in-flight window full and waits 25 units
	// before it is issued; every operation then takes 5 units.
	latency, late := openLoop(c, 5, 10, func(i int, done func()) {
		if i == 2 {
			c.t += 25
		}
		issued := c.t
		c.t = issued + service
		done()
		c.t = issued
	})
	// Due at 0, 10, 20, 30, 40. Operations 2-4 are all issued at 45.
	wantLate := []time.Duration{0, 0, 25, 15, 5}
	wantLatency := []time.Duration{5, 5, 30, 20, 10}
	if !slices.Equal(late, wantLate) {
		t.Errorf("lateness %v, want %v", late, wantLate)
	}
	if !slices.Equal(latency, wantLatency) {
		t.Errorf("latency %v, want %v (timed from each due time)", latency, wantLatency)
	}
}
