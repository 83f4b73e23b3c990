// Package linial implements Linial's color-reduction machinery — Theorems 1
// and 2 of the paper — plus the classic color-class sweep that finishes a
// palette down to Δ+1.
//
// Theorem 1 (one-round reduction). Linial proved that a k-coloring can be
// recolored to 5Δ²·log k colors in a single round, via Δ-cover-free set
// systems. We use the explicit polynomial construction of such systems
// (Erdős–Frankl–Füredi): identify each color c < k with a polynomial p_c of
// degree <= d over F_q and let S_c = {(x, p_c(x)) : x in F_q}. Two distinct
// polynomials agree on at most d points, so if q > Δ·d the set S_c of a
// vertex is never covered by the union of its <= Δ neighbors' sets, and the
// vertex can adopt any uncovered point as its new color from a palette of
// size q². For the optimal d this gives q² = O(Δ² log² k / log²(Δ log k)) —
// the same one-round mechanism as the theorem with a slightly weaker
// constant, which iteration (Theorem 2) absorbs: the fixed point is still
// O(Δ²) and the round count is still O(log* k).
//
// Theorem 2 (iterated reduction). Schedule computes the palette trajectory
// k0 -> k1 -> ... down to the fixed point β·Δ², giving an O(log* n)-round
// DetLOCAL algorithm when k0 = poly(n) (IDs as the initial coloring).
//
// Colors in this package are 0-based (0..k-1); the algorithm packages
// convert to the library's 1-based convention at their boundaries.
package linial

import (
	"fmt"

	"locality/internal/mathx"
)

// Family is a Δ-cover-free family over polynomial point sets: it reduces a
// K-coloring to a Q²-coloring in one round on graphs of max degree Delta.
type Family struct {
	// K is the size of the palette being reduced.
	K int
	// Delta is the maximum degree the family tolerates.
	Delta int
	// Q is the field size (prime, > Delta*D).
	Q int
	// D is the polynomial degree bound (Q^(D+1) >= K).
	D int
}

// NewFamily picks the parameters minimizing the output palette Q² for the
// given input palette size k and degree bound delta.
func NewFamily(k, delta int) Family {
	if k < 1 {
		panic(fmt.Sprintf("linial: input palette %d < 1", k))
	}
	if delta < 1 {
		delta = 1
	}
	best := Family{}
	for d := 1; ; d++ {
		// Smallest prime q with q > delta*d and q^(d+1) >= k: start from the
		// larger of delta*d+1 and ceil(k^(1/(d+1))) and walk primes from
		// there (at most a few steps thanks to prime density).
		lo := delta*d + 1
		if r := iroot(k, d+1); r > lo {
			lo = r
		}
		q := mathx.NextPrime(lo)
		for mathx.PowInt(q, d+1) < k {
			q = mathx.NextPrime(q + 1)
		}
		if best.Q == 0 || q < best.Q {
			best = Family{K: k, Delta: delta, Q: q, D: d}
		}
		// Once delta*d alone exceeds the best q found, larger d cannot help.
		if delta*d+1 > best.Q {
			break
		}
		if d > 64 {
			break // k <= 2^64 always satisfiable well before this
		}
	}
	return best
}

// PaletteSize returns the size of the output palette, Q².
func (f Family) PaletteSize() int { return f.Q * f.Q }

// iroot returns ceil(k^(1/e)) for k >= 1, e >= 1, by binary search on the
// saturating integer power.
func iroot(k, e int) int {
	lo, hi := 1, 2
	for mathx.PowInt(hi, e) < k {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if mathx.PowInt(mid, e) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// evalPoly evaluates the polynomial encoding of color c at point x over F_q:
// the base-q digits of c are the coefficients, least significant first.
func (f Family) evalPoly(c, x int) int {
	y, xi := 0, 1 // xi = x^i mod q
	for i := 0; i <= f.D; i++ {
		y = (y + c%f.Q*xi) % f.Q
		c /= f.Q
		xi = xi * x % f.Q
	}
	return y
}

// Reduce returns the new color of a vertex with color own whose neighbors
// have colors nbrs (entries < 0 are ignored: "no constraint"). All colors
// must be < K and the effective number of constraining neighbors at most
// Delta; violations panic, since they indicate a broken caller, not bad
// user input.
//
// The new color is the first point x·Q + p_own(x) of S_own, in increasing
// x, that no neighbor's set covers. A neighbor's point x'·Q + p_nc(x') can
// equal it only at x' = x, so the point is covered exactly when some
// neighbor's polynomial agrees with own's at x.
func (f Family) Reduce(own int, nbrs []int) int {
	if own < 0 || own >= f.K {
		panic(fmt.Sprintf("linial: color %d outside palette 0..%d", own, f.K-1))
	}
	active := 0
	for _, nc := range nbrs {
		if nc < 0 {
			continue
		}
		if nc >= f.K {
			panic(fmt.Sprintf("linial: neighbor color %d outside palette 0..%d", nc, f.K-1))
		}
		if nc == own {
			panic(fmt.Sprintf("linial: neighbor shares color %d (input coloring improper)", own))
		}
		active++
	}
	if active > f.Delta {
		panic(fmt.Sprintf("linial: %d constraining neighbors exceed Delta=%d", active, f.Delta))
	}
points:
	for x := 0; x < f.Q; x++ {
		y := f.evalPoly(own, x)
		for _, nc := range nbrs {
			if nc >= 0 && f.evalPoly(nc, x) == y {
				continue points
			}
		}
		return x*f.Q + y
	}
	// Unreachable by the cover-free property (q > Δ·d).
	panic("linial: cover-free property violated (internal bug)")
}

// Schedule returns the palette trajectory of iterated one-round reductions
// starting from k0 on degree-delta graphs: schedule[i] reduces palette
// schedule[i].K to schedule[i].PaletteSize(), and the final palette is the
// fixed point (applying another reduction would not shrink it). The length
// of the schedule is the round cost of Theorem 2 — O(log* k0).
func Schedule(k0, delta int) []Family {
	var sched []Family
	k := k0
	for {
		f := NewFamily(k, delta)
		if f.PaletteSize() >= k {
			return sched
		}
		sched = append(sched, f)
		k = f.PaletteSize()
	}
}

// FixedPoint returns the final palette size of the iterated reduction, the
// β·Δ² of Theorem 2.
func FixedPoint(k0, delta int) int {
	return FixedPointOf(k0, Schedule(k0, delta))
}

// FixedPointOf returns the final palette of sched, the Schedule started from
// palette k0, without recomputing it: k0 itself when sched is empty.
func FixedPointOf(k0 int, sched []Family) int {
	if len(sched) == 0 {
		return k0
	}
	return sched[len(sched)-1].PaletteSize()
}
