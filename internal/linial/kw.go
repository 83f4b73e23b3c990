package linial

import "fmt"

// This file implements the Kuhn–Wattenhofer iterated block color reduction:
// given a proper k-coloring and a target palette T >= Δ+1, reduce to a
// T-coloring in O(T · log(k/T)) rounds — exponentially faster than the
// naive (k-T)-round class sweep when k >> T. The Δ-coloring algorithms use
// it to turn Linial's O(Δ²) fixed point into a (Δ+1)-coloring cheaply,
// which in turn powers O(Δ)-round MIS-by-color-classes.
//
// One halving pass with current palette k: partition the palette into
// blocks of 2T consecutive colors; block b will own the target range
// [b·T, (b+1)·T). All blocks sweep their (at most 2T) classes in parallel —
// sub-step j recolors the vertices holding the j-th color of their block
// into a free color of the block's target range. Adjacent vertices in
// different blocks can never collide (disjoint target ranges), and within
// a block at most Δ < T neighbors constrain a choice, so a free color
// always exists. The palette shrinks to ceil(k/(2T))·T <= k/2 + T.

// KWPlan is the round schedule of the iterated reduction from K0 colors to
// Target colors: Palettes[i] is the palette size before pass i, and each
// pass costs PassLen(i) = min(2*Target, Palettes[i]) rounds.
type KWPlan struct {
	Target   int
	Palettes []int
}

// NewKWPlan computes the halving schedule.
func NewKWPlan(k0, target int) KWPlan {
	if target < 1 {
		panic(fmt.Sprintf("linial: KW target %d < 1", target))
	}
	plan := KWPlan{Target: target}
	k := k0
	for k > target {
		plan.Palettes = append(plan.Palettes, k)
		blocks := (k + 2*target - 1) / (2 * target)
		next := blocks * target
		if next >= k {
			// k <= 2*target: one final full sweep of the single block.
			next = target
		}
		k = next
	}
	return plan
}

// PassLen returns the number of rounds of pass i.
func (p KWPlan) PassLen(i int) int {
	k := p.Palettes[i]
	if k < 2*p.Target {
		return k
	}
	return 2 * p.Target
}

// Rounds is the total round cost of the reduction.
func (p KWPlan) Rounds() int {
	total := 0
	for i := range p.Palettes {
		total += p.PassLen(i)
	}
	return total
}

// Recolor executes one sub-step of pass i for a vertex: given the vertex's
// current color (0-based, < Palettes[i]), the sub-step index j (0-based, <
// PassLen(i)) and the neighbors' current colors (entries < 0 ignored), it
// returns the vertex's color after the sub-step. Vertices not in the
// sweeping class keep their color. used is the caller's scratch color set,
// grown and overwritten as needed (see FreeColor).
func (p KWPlan) Recolor(i, j, own int, nbrs []int, used *[]bool) int {
	k := p.Palettes[i]
	t := p.Target
	blockSize := 2 * t
	if k < blockSize {
		blockSize = k // single block
	}
	block := own / blockSize
	if own%blockSize != j {
		return own // not this sub-step's class
	}
	lo := block * t // target range [lo, lo+t)
	return mustFreeColor(nbrs, lo, t, used)
}
