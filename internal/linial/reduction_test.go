package linial_test

import (
	"fmt"
	"testing"

	"locality/internal/graph"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/rng"
)

// wantSteps is the step count of a reduction written out from its parts:
// the Theorem 2 schedule, then nothing (target 0 or already at most
// target), the KW plan's rounds, or one step per class above target.
func wantSteps(k0, delta, target int, kw bool) int {
	steps := len(linial.Schedule(k0, delta))
	fp := linial.FixedPoint(k0, delta)
	switch {
	case target == 0 || fp <= target:
	case kw:
		steps += linial.NewKWPlan(fp, target).Rounds()
	default:
		steps += fp - target
	}
	return steps
}

// checkReduction runs every step of the reduction synchronously on g from
// a random proper k0-coloring and fails t unless the coloring stays proper
// after every Apply and ends inside its palette: target colors, or the
// fixed point when target is 0. It also checks the Linial/sweep boundary
// and the fixed point the Reduction reports against the written-out
// schedule.
func checkReduction(t *testing.T, g *graph.Graph, k0, delta, target int, kw bool, r *rng.Source) {
	t.Helper()
	red := linial.NewReduction(k0, delta, target, kw)
	if got, want := red.Steps(), wantSteps(k0, delta, target, kw); got != want {
		t.Fatalf("k0=%d Δ=%d target=%d kw=%v: Steps() = %d, want %d", k0, delta, target, kw, got, want)
	}
	if got, want := red.LinialSteps(), len(linial.Schedule(k0, delta)); got != want {
		t.Fatalf("k0=%d Δ=%d target=%d kw=%v: LinialSteps() = %d, want len(Schedule) = %d", k0, delta, target, kw, got, want)
	}
	if got, want := red.FixedPoint(), linial.FixedPoint(k0, delta); got != want {
		t.Fatalf("k0=%d Δ=%d target=%d kw=%v: FixedPoint() = %d, want %d", k0, delta, target, kw, got, want)
	}
	colors := make([]int, g.N())
	taken := make(map[int]bool, g.N())
	for v := range colors {
		c := r.Intn(k0)
		for taken[c] {
			c = r.Intn(k0)
		}
		taken[c] = true
		colors[v] = c
	}
	next := make([]int, g.N())
	var nbrs []int
	var used []bool // one scratch set for every vertex: Apply must leave it cleared
	for i := 0; i < red.Steps(); i++ {
		for v := range colors {
			nbrs = nbrs[:0]
			for _, h := range g.Ports(v) {
				nbrs = append(nbrs, colors[h.To])
			}
			next[v] = red.Apply(i, colors[v], nbrs, &used)
		}
		colors, next = next, colors
		for _, e := range g.Edges() {
			if colors[e[0]] == colors[e[1]] {
				t.Fatalf("k0=%d Δ=%d target=%d kw=%v: step %d gives edge %v color %d on both ends",
					k0, delta, target, kw, i, e, colors[e[0]])
			}
		}
	}
	palette := linial.FixedPoint(k0, delta)
	if target != 0 {
		palette = mathx.Min(palette, target)
	}
	for v, c := range colors {
		if c < 0 || c >= palette {
			t.Fatalf("k0=%d Δ=%d target=%d kw=%v: vertex %d ends with color %d outside 0..%d",
				k0, delta, target, kw, v, c, palette-1)
		}
	}
}

// TestReductionGrid checks Steps() against the written-out formula, the
// Linial/sweep boundary against len(Schedule(k0, Δ)), and the coloring's
// properness after every step, over a grid of initial palettes,
// degree bounds, targets and both sweeps, on random trees and
// bounded-degree graphs.
func TestReductionGrid(t *testing.T) {
	r := rng.New(2016)
	const n = 60
	for _, delta := range []int{1, 2, 3, 5, 8} {
		graphs := []*graph.Graph{graph.RandomBoundedDegree(n, n*delta/3, delta, r)}
		if delta >= 2 {
			graphs = append(graphs, graph.RandomTree(n, delta, r))
		}
		for _, k0 := range []int{n, n * n, 1 << 16, 1 << 24} {
			for _, target := range []int{0, delta + 1, delta + 3, 2*delta + 1} {
				for _, kw := range []bool{false, true} {
					for _, g := range graphs {
						name := fmt.Sprintf("k0=%d/Δ=%d/target=%d/kw=%v/m=%d", k0, delta, target, kw, g.M())
						t.Run(name, func(t *testing.T) {
							checkReduction(t, g, k0, delta, target, kw, r)
						})
					}
				}
			}
		}
	}
}

// TestSweepClass checks SweepClass against the written-out schedule and
// against Apply: -1 at the Linial steps and at every Kuhn–Wattenhofer
// sub-step; at a one-class sweep step, the classes from the fixed point
// down, and Apply recolors that class and leaves every other color.
func TestSweepClass(t *testing.T) {
	var used []bool
	for _, delta := range []int{1, 2, 3, 8} {
		for _, k0 := range []int{2, delta + 1, 60, 1 << 16} {
			for _, target := range []int{0, delta + 1, 2*delta + 1} {
				for _, kw := range []bool{false, true} {
					red := linial.NewReduction(k0, delta, target, kw)
					linialSteps := len(linial.Schedule(k0, delta))
					fp := linial.FixedPoint(k0, delta)
					for i := 0; i < red.Steps(); i++ {
						want := -1
						if i >= linialSteps && !kw {
							want = fp - 1 - (i - linialSteps)
						}
						if got := red.SweepClass(i); got != want {
							t.Fatalf("k0=%d Δ=%d target=%d kw=%v: SweepClass(%d) = %d, want %d", k0, delta, target, kw, i, got, want)
						}
						if want < 0 {
							continue
						}
						for own := 0; own < fp; own++ {
							if got := red.Apply(i, own, nil, &used); (got != own) != (own == want) {
								t.Fatalf("k0=%d Δ=%d target=%d: step %d maps color %d to %d, class %d", k0, delta, target, i, own, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzReduction checks the same properties as TestReductionGrid on fuzzed
// graphs, palettes, degree bounds and targets.
func FuzzReduction(f *testing.F) {
	f.Add(uint64(1), uint32(1000), uint8(3), uint8(0), false, true)
	f.Add(uint64(2), uint32(1<<20), uint8(6), uint8(1), true, false)
	f.Add(uint64(3), uint32(64), uint8(2), uint8(5), false, false)
	f.Add(uint64(4), uint32(1<<16), uint8(9), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, k0Raw uint32, deltaRaw, slack uint8, kw, tree bool) {
		r := rng.New(seed)
		n := 2 + r.Intn(63)
		delta := 1 + int(deltaRaw%10)
		var g *graph.Graph
		if tree && delta >= 2 {
			g = graph.RandomTree(n, delta, r)
		} else {
			g = graph.RandomBoundedDegree(n, r.Intn(mathx.Min(n*delta/3, n*(n-1)/4)+1), delta, r)
		}
		k0 := n + int(k0Raw%(1<<24))
		target := 0
		if slack%4 != 0 {
			target = delta + int(slack%16)
		}
		checkReduction(t, g, k0, delta, target, kw, r)
	})
}
