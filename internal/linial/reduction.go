package linial

// Reduction is the step schedule of the deterministic color reduction:
// Theorem 2's iterated Linial families down to the fixed point, optionally
// finished to a target palette, either by a Kuhn–Wattenhofer sweep or by
// recoloring one color class per step from the top down. Every algorithm
// that runs Theorem 2 (the standalone Machine, the line-graph edge
// coloring, Theorem 11's bootstrap, the forest coloring's arb-Linial and
// H-sweep) steps through one Reduction, which a run builds once and its
// machines share read-only.
type Reduction struct {
	sched  []Family
	fp     int // fixed-point palette of sched
	target int // final palette; 0 means stop at the fixed point
	kw     KWPlan
	// kwAt[s] = (pass, substep) of KW sweep step s (0-based).
	kwAt [][2]int
	// sweep is the number of steps after sched: one per KW sub-step, or
	// one per color class above target.
	sweep int
}

// NewReduction plans the reduction of a k0-coloring on graphs of maximum
// degree delta. target = 0 stops at the fixed point; a positive target
// (at least delta+1, which the caller checks) appends a sweep down to
// target colors, the Kuhn–Wattenhofer block reduction when kw is set and
// the one-class-per-step sweep when it is not.
func NewReduction(k0, delta, target int, kw bool) Reduction {
	r := Reduction{sched: Schedule(k0, delta), target: target}
	r.fp = FixedPointOf(k0, r.sched)
	if target == 0 || r.fp <= target {
		return r
	}
	if !kw {
		r.sweep = r.fp - target
		return r
	}
	r.kw = NewKWPlan(r.fp, target)
	for i := range r.kw.Palettes {
		for j := 0; j < r.kw.PassLen(i); j++ {
			r.kwAt = append(r.kwAt, [2]int{i, j})
		}
	}
	r.sweep = len(r.kwAt)
	return r
}

// Steps is the number of reduction steps, one communication round each.
func (r *Reduction) Steps() int { return len(r.sched) + r.sweep }

// LinialSteps is the number of Linial steps: steps 0..LinialSteps()-1
// apply Theorem 2's families, and the sweep (if any) follows them.
func (r *Reduction) LinialSteps() int { return len(r.sched) }

// FixedPoint is the palette after the Linial steps: their colors lie in
// 0..FixedPoint()-1.
func (r *Reduction) FixedPoint() int { return r.fp }

// SweepClass returns the color class that step i recolors when the
// Reduction sweeps one class per step: after the Linial steps, the classes
// above target from the top down. It returns -1 at a Linial step and at a
// Kuhn–Wattenhofer sub-step, where any color may change, so it does not
// tell the two apart; LinialSteps does. At a one-class sweep step Apply
// leaves every other color as it is, so a vertex of another color need not
// gather its neighbors' colors.
func (r *Reduction) SweepClass(i int) int {
	if i < len(r.sched) || r.kwAt != nil {
		return -1
	}
	return r.fp - 1 - (i - len(r.sched))
}

// Apply returns a vertex's color after reduction step i (0-based, below
// Steps()), given its color own and its neighbors' colors nbrs (entries
// < 0 are ignored). Colors are 0-based. nbrs is read, never retained.
// used is the caller's scratch color set: a machine passes the same one at
// every step, so the sweep steps allocate nothing once it has grown to
// the target palette. The Reduction itself is never written.
func (r *Reduction) Apply(i, own int, nbrs []int, used *[]bool) int {
	if i < len(r.sched) {
		return r.sched[i].Reduce(own, nbrs)
	}
	if r.kwAt != nil {
		i -= len(r.sched)
		return r.kw.Recolor(r.kwAt[i][0], r.kwAt[i][1], own, nbrs, used)
	}
	if own == r.SweepClass(i) {
		return mustFreeColor(nbrs, 0, r.target, used)
	}
	return own
}

// FreeColor returns the smallest color in lo..lo+size-1 not present in
// nbrs and true, or 0 and false when all of them are. It marks the taken
// colors in *used, growing it to size when it is shorter, and leaves it
// cleared, so a caller that passes one set at every call allocates it at
// most once.
func FreeColor(nbrs []int, lo, size int, used *[]bool) (int, bool) {
	if cap(*used) < size {
		*used = make([]bool, size)
	}
	set := (*used)[:size]
	for _, nc := range nbrs {
		if nc >= lo && nc < lo+size {
			set[nc-lo] = true
		}
	}
	free := -1
	for c, taken := range set {
		if !taken {
			free = c
			break
		}
	}
	clear(set)
	if free < 0 {
		return 0, false
	}
	return lo + free, true
}

// mustFreeColor is FreeColor for the reduction sweeps, where size exceeds
// the degree and a free color always exists; it panics if none is.
func mustFreeColor(nbrs []int, lo, size int, used *[]bool) int {
	c, ok := FreeColor(nbrs, lo, size, used)
	if !ok {
		panic("linial: no free color (degree >= Target?)")
	}
	return c
}
