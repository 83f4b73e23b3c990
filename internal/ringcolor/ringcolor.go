// Package ringcolor implements the Δ=2 dichotomy pair of Theorem 7 /
// Corollary 3 on cycles, plus the classic Cole–Vishkin algorithm:
//
//   - 3-coloring a ring takes O(log* n) rounds (Cole–Vishkin on oriented
//     rings; Linial's reduction handles the unoriented case), matching the
//     "O(log* n)" side of the dichotomy and Linial's lower bound.
//   - 2-coloring an (even) ring requires seeing the whole cycle: the
//     distributed algorithm here elects the maximum-ID vertex by flooding
//     and 2-colors by distance parity, taking Θ(n) rounds — the "Ω(n)"
//     side of the dichotomy. (Package nbrgraph proves the lower bound side
//     mechanically for small instances.)
package ringcolor

import (
	"fmt"

	"locality/internal/graph"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// OrientedInput is the promise input of the oriented-ring algorithms: the
// port leading to the cyclic successor.
type OrientedInput struct {
	SuccPort int
}

// RingOrientation builds the per-vertex OrientedInput table for graph.Ring.
func RingOrientation(g *graph.Graph) ([]any, error) {
	n := g.N()
	inputs := make([]any, n)
	for v := 0; v < n; v++ {
		succ := (v + 1) % n
		found := false
		for p, h := range g.Ports(v) {
			if h.To == succ {
				inputs[v] = OrientedInput{SuccPort: p}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ringcolor: vertex %d has no edge to %d; not a standard ring", v, succ)
		}
	}
	return inputs, nil
}

// coleVishkin 3-colors an oriented ring: iterated bit tricks shrink the
// ID-based coloring to 6 colors in O(log* n) rounds, then a 3-step shift
// sweep removes colors 5, 4, 3.
type coleVishkin struct {
	env      sim.Env
	succPort int
	predPort int
	color    uint64
	phase    int // number of bit-reduction rounds scheduled
	sweep    int
	maxBits  int
}

var _ sim.Machine = (*coleVishkin)(nil)

// NewColeVishkinFactory returns the oriented-ring 3-coloring machine.
// maxIDBits bounds the initial ID length (use the ID-space size, e.g. 64 or
// ceil(log2 n)+1 for IDs in 1..n).
func NewColeVishkinFactory(maxIDBits int) sim.Factory {
	return func() sim.Machine { return &coleVishkin{maxBits: maxIDBits} }
}

// cvSchedule returns how many reduction rounds shrink maxBits-bit colors to
// colors in {0..5}: each round maps b-bit colors to (ceil(log2 b) + 1)-bit
// colors; the fixed point of b -> ceil(log2 b)+1 is 3 bits spanning {0..7},
// and one extra round at 3 bits yields values < 6 (positions 0,1,2 plus
// bit): 2*pos+bit <= 5.
func cvSchedule(maxBits int) int {
	rounds := 0
	b := maxBits
	for b > 3 {
		b = mathx.CeilLog2(b) + 1
		rounds++
	}
	return rounds + 1 // final round lands in {0..5}
}

func (m *coleVishkin) Init(env sim.Env) {
	m.env = env
	in, ok := env.Input.(OrientedInput)
	if !ok {
		panic(fmt.Sprintf("ringcolor: ColeVishkin needs OrientedInput, got %T", env.Input))
	}
	if env.Degree != 2 {
		panic(fmt.Sprintf("ringcolor: ColeVishkin needs a ring, vertex degree is %d", env.Degree))
	}
	m.succPort = in.SuccPort
	m.predPort = 1 - in.SuccPort
	if !env.HasID {
		panic("ringcolor: ColeVishkin is a DetLOCAL algorithm; IDs required")
	}
	m.color = env.ID
	m.phase = cvSchedule(m.maxBits)
}

func (m *coleVishkin) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step >= 2 && step <= m.phase+1 {
		// Reduce against the predecessor's previous color.
		pred := recv[m.predPort].(uint64)
		m.color = cvReduce(m.color, pred)
	}
	if step > m.phase+1 {
		// Class sweep: 3 extra rounds eliminate colors 5, 4, 3. On a ring
		// both neighbor colors are in hand, and each color class is an
		// independent set, so the class recolors greedily in parallel.
		target := uint64(5 - (step - m.phase - 2)) // 5, then 4, then 3
		if m.color == target {
			m.color = pickFree3(recv[m.succPort].(uint64), recv[m.predPort].(uint64))
		}
		if target == 3 {
			return nil, true // last class done; nobody needs our color anymore
		}
	}
	send := make([]sim.Message, m.env.Degree)
	send[m.succPort] = m.color
	send[m.predPort] = m.color
	return send, false
}

// pickFree3 returns the smallest color in {0,1,2} different from both
// arguments.
func pickFree3(a, b uint64) uint64 {
	for c := uint64(0); c < 3; c++ {
		if c != a && c != b {
			return c
		}
	}
	panic("ringcolor: no free color among 3 with 2 neighbors")
}

// cvReduce is the Cole–Vishkin bit trick: find the lowest bit position i
// where own and pred differ (they do differ: colors are proper along the
// orientation) and output 2i + bit_i(own).
func cvReduce(own, pred uint64) uint64 {
	diff := own ^ pred
	if diff == 0 {
		panic("ringcolor: predecessor shares color; coloring not proper")
	}
	i := uint64(0)
	for diff&1 == 0 {
		diff >>= 1
		i++
	}
	return 2*i + (own>>i)&1
}

func (m *coleVishkin) Output() any { return int(m.color) + 1 } // 1-based

// Rounds predicts the Cole–Vishkin round count for the given ID bit length:
// the reduction schedule plus the three-class sweep (whose last class costs
// no extra round beyond its recoloring step).
func Rounds(maxIDBits int) int {
	return cvSchedule(maxIDBits) + 3
}

// NewUnorientedRing3Factory 3-colors an unoriented ring via Linial's
// reduction with Δ=2 followed by the class sweep — no orientation promise
// needed. idSpace bounds the IDs (IDs must lie in 1..idSpace).
func NewUnorientedRing3Factory(idSpace int) sim.Factory {
	return linial.NewFactory(linial.Options{
		InitialPalette: idSpace,
		Delta:          2,
		Target:         3,
	})
}

// twoColor 2-colors an even ring in Θ(n) rounds: flood the maximum ID with
// hop counts; each vertex colors itself by hop-distance parity. The flood
// needs n-1 rounds to be sure (nodes know n), plus the final read — the
// linear cost that Theorem 7 proves unavoidable for this LCL.
type twoColor struct {
	env     sim.Env
	bestID  uint64
	bestHop int
	send    []sim.Message // reused claim broadcast
}

var _ sim.Machine = (*twoColor)(nil)

// NewTwoColorFactory returns the Θ(n) 2-coloring machine for even rings.
func NewTwoColorFactory() sim.Factory {
	return func() sim.Machine { return &twoColor{} }
}

func (m *twoColor) Init(env sim.Env) {
	if !env.HasID {
		panic("ringcolor: 2-coloring machine is DetLOCAL; IDs required")
	}
	m.env = env
	m.bestID = env.ID
	m.bestHop = 0
}

// claim is the leader-election flood payload: a candidate leader ID and the
// hop distance the claim has traveled.
type claim struct {
	ID  uint64
	Hop int
}

func (m *twoColor) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		c := msg.(claim)
		if c.ID > m.bestID || (c.ID == m.bestID && c.Hop+1 < m.bestHop) {
			m.bestID = c.ID
			m.bestHop = c.Hop + 1
		}
	}
	// After n-1 rounds every vertex knows the max ID and its true hop
	// distance along the shorter side; parity of the shortest hop distance
	// 2-colors an even cycle. One extra step to absorb the last messages.
	if step > m.env.N {
		return nil, true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, claim{ID: m.bestID, Hop: m.bestHop}), false
}

func (m *twoColor) Output() any { return m.bestHop%2 + 1 }
