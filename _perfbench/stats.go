package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so the spreads this benchmark reports
// match the ones computed over its results. It needs two values or more.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	if len(xs) < 2 {
		return q, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// tailPercentiles are the candidates for a reported tail, highest last.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile: fewer would make the figure one or two outliers.
const minBeyondTail = 10

// tail is the highest percentile that has at least minBeyondTail samples
// beyond it, taken by nearest rank.
type tail struct {
	Percentile float64
	Value      float64
	Rank       int // 1-based rank of Value among N sorted samples
	N          int
}

// tailOf picks the reported tail of xs. It refuses (ok false) when even the
// median has fewer than minBeyondTail samples beyond it.
func tailOf(xs []float64) (t tail, ok bool) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank < 1 || len(s)-rank < minBeyondTail {
			break
		}
		t, ok = tail{Percentile: p, Value: s[rank-1], Rank: rank, N: len(s)}, true
	}
	return t, ok
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// clock is the time source of an open loop; tests substitute a fake.
type clock interface {
	now() time.Duration // time since an arbitrary fixed origin
	sleepUntil(t time.Duration)
}

// openLoop issues n operations on a fixed schedule, one every interval,
// whatever the system under test is doing, and returns each one's latency
// and how late the generator issued it. Operation i is due at
// start+i·interval; its latency runs from that due time, not from when it
// was actually issued, so a stall that delays later sends is charged to
// them. launch returns once the operation is issued (it may first wait for
// a free slot) and calls done, from any goroutine, when the operation ends;
// the caller reads latency only after every done has returned.
func openLoop(c clock, n int, interval time.Duration, launch func(i int, done func())) (latency, late []time.Duration) {
	latency = make([]time.Duration, n)
	late = make([]time.Duration, n)
	start := c.now()
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		c.sleepUntil(due)
		launch(i, func() { latency[i] = c.now() - due })
		late[i] = c.now() - due
	}
	return latency, late
}

// wallClock is the real clock.
type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (w wallClock) now() time.Duration { return time.Since(w.origin) }

func (w wallClock) sleepUntil(t time.Duration) {
	if d := t - w.now(); d > 0 {
		time.Sleep(d)
	}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
