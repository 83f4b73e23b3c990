// Package rng implements a deterministic, splittable random number generator.
//
// The RandLOCAL model gives every vertex an unbounded private stream of truly
// random bits, independent across vertices. For a reproducible simulator we
// need the moral equivalent: per-node streams that are (a) statistically
// independent for simulation purposes, (b) derived deterministically from a
// single run seed, and (c) cheap to create — one per vertex per run, possibly
// millions.
//
// The construction is SplitMix64 for stream derivation (its output function
// is a strong 64-bit mixer, so node streams seeded with mix(seed, nodeIndex)
// are decorrelated) feeding xoshiro256** for bulk generation. Both are
// implemented from scratch; only the standard library is used.
package rng

import "math/bits"

// splitmix64 advances a SplitMix64 state and returns the next output.
// Reference: Sebastiano Vigna, "Further scramblings of Marsaglia's
// xorshift generators" (public-domain algorithm).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes two 64-bit values into one with SplitMix64 finalization.
// It is the stream-derivation function: independent-looking seeds for
// (runSeed, nodeIndex) pairs.
func Mix64(a, b uint64) uint64 {
	s := a ^ 0x9e3779b97f4a7c15
	_ = splitmix64(&s)
	s ^= b
	return splitmix64(&s)
}

// Source is a deterministic pseudo-random stream (xoshiro256**).
// The zero value is NOT usable; construct with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64 state expansion,
// as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	src.seed(seed)
	return &src
}

// seed resets r to the stream New(seed) starts.
func (r *Source) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 outputs four zeros
	// with probability 2^-256, but be defensive.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child stream identified by index.
// Splitting the same source with the same index always yields the same
// child, so per-node streams are reproducible given the run seed.
func (r *Source) Split(index uint64) *Source {
	return New(Mix64(r.Uint64(), index))
}

// NewNode is the conventional way the simulator derives the private stream
// of node v for a run with the given seed.
func NewNode(seed uint64, v int) *Source {
	return New(Mix64(seed, uint64(v)))
}

// SeedNode resets r, in place, to the stream NewNode(seed, v) returns. A
// run that seeds every node's stream into one []Source slab makes one
// allocation for all of them instead of one per node.
func (r *Source) SeedNode(seed uint64, v int) {
	r.seed(Mix64(seed, uint64(v)))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bits returns k pseudo-random bits packed little-endian into a byte slice
// of length ceil(k/8); unused high bits of the last byte are zero.
// This mirrors the paper's "string of r(n,Δ) random bits".
func (r *Source) Bits(k int) []byte {
	if k < 0 {
		panic("rng: Bits with negative count")
	}
	out := make([]byte, (k+7)/8)
	for i := 0; i < len(out); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	if rem := k % 8; rem != 0 {
		out[len(out)-1] &= byte(1<<rem) - 1
	}
	return out
}

// Perm returns a uniform random permutation of [0, n) (Fisher–Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
