// Package sinkless implements the Brandt et al. [1] problem pair behind the
// paper's Theorem 4 — Δ-SINKLESS ORIENTATION and Δ-SINKLESS COLORING on
// Δ-regular graphs with a proper Δ-edge coloring — together with:
//
//   - a RandLOCAL sinkless-orientation algorithm (random orientation by
//     per-edge priority comparison, then "sink tokens" re-flip random
//     incident edges until none remain);
//   - the constructive reductions underlying Lemmas 1 and 2, as executable
//     machine transformers: an orientation derived from a sinkless
//     coloring (orient each vertex's own-color edge outward) and a
//     coloring derived from a sinkless orientation (adopt the edge color
//     of an outgoing edge). Failures translate exactly as the lemmas
//     predict: a forbidden monochromatic configuration is the only way the
//     derived orientation can clash, and a sink is the only way the
//     derived coloring can go wrong;
//   - the exact base case of Theorem 4: every 0-round strategy fails on
//     some edge with probability at least 1/Δ², with the uniform
//     distribution achieving exactly 1/Δ² (the ZeroRound functions).
package sinkless

import (
	"fmt"

	"locality/internal/lcl"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// VertexColors extracts the per-port edge colors from the environment.
func VertexColors(env sim.Env) []int {
	in, ok := env.Input.(lcl.VertexInput)
	if !ok {
		panic(fmt.Sprintf("sinkless: input is %T, want lcl.VertexInput (edge colors)", env.Input))
	}
	if len(in.EdgeColors) != env.Degree {
		panic(fmt.Sprintf("sinkless: %d edge colors for degree %d", len(in.EdgeColors), env.Degree))
	}
	return in.EdgeColors
}

// OrientResult is the orientation machine's output: the label plus the last
// phase at which the vertex was still a sink (diagnostics for experiment
// E11's convergence measurement; -1 if it never was one).
type OrientResult struct {
	Label        lcl.OrientationLabel
	LastSinkStep int
}

// orientMsg carries per-edge claims.
type orientMsg struct {
	Prio uint64 // initial orientation priority (step 1) or flip priority
	Flip bool   // the sender, a sink, claims this edge outgoing
}

type orient struct {
	env       sim.Env
	out       []bool
	initPrio  []uint64
	claimPort int
	claimPrio uint64
	lastSink  int
	phases    int
}

var _ sim.Machine = (*orient)(nil)

// NewOrientFactory returns the randomized sinkless-orientation machine.
func NewOrientFactory() sim.Factory {
	return func() sim.Machine { return &orient{} }
}

func (m *orient) Init(env sim.Env) {
	if env.Rand == nil {
		panic("sinkless: orientation machine requires Config.Randomized")
	}
	m.env = env
	m.out = make([]bool, env.Degree)
	m.initPrio = make([]uint64, env.Degree)
	m.claimPort = -1
	m.lastSink = -1
	m.phases = 16*mathx.CeilLog2(env.N+1) + 32 // sink-fixing phases
}

func (m *orient) isSink() bool {
	for _, o := range m.out {
		if o {
			return false
		}
	}
	return m.env.Degree > 0
}

// Step protocol.
//
// Step 1: draw a priority per port and send it.
// Step 2: orient every edge toward the larger priority (a 2^-64-probability
// tie leaves the edge claimed by neither side; a later sink flip repairs it,
// and if no endpoint ever becomes a sink the verifier reports the edge —
// failures are visible, never silent).
// Steps >= 2: sink-fixing phase: resolve incoming flip claims (competing
// claims on one edge go to the larger flip priority, identically computed
// at both endpoints), then, if still a sink, claim one uniformly random
// incident edge.
func (m *orient) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	switch {
	case step == 1:
		send := make([]sim.Message, m.env.Degree)
		for p := range send {
			m.initPrio[p] = m.env.Rand.Uint64()
			send[p] = orientMsg{Prio: m.initPrio[p]}
		}
		return send, false
	case step == 2:
		for p, msg := range recv {
			om, ok := msg.(orientMsg)
			if !ok {
				panic(fmt.Sprintf("sinkless: unexpected message %T", msg))
			}
			m.out[p] = m.initPrio[p] > om.Prio
		}
	default:
		m.resolveClaims(recv)
	}
	if step >= 2+m.phases {
		return nil, true
	}
	if m.isSink() {
		m.lastSink = step
		p := m.env.Rand.Intn(m.env.Degree)
		m.claimPort = p
		m.claimPrio = m.env.Rand.Uint64()
		send := make([]sim.Message, m.env.Degree)
		send[p] = orientMsg{Flip: true, Prio: m.claimPrio}
		return send, false
	}
	return nil, false
}

// resolveClaims settles the previous phase's flip claims. Both endpoints of
// a doubly-claimed edge apply the same priority rule, so their views stay
// complementary.
func (m *orient) resolveClaims(recv []sim.Message) {
	myClaim := m.claimPort
	m.claimPort = -1
	for p, msg := range recv {
		if msg == nil {
			if p == myClaim {
				m.out[p] = true // unopposed claim stands
			}
			continue
		}
		om, ok := msg.(orientMsg)
		if !ok {
			panic(fmt.Sprintf("sinkless: unexpected message %T", msg))
		}
		if !om.Flip {
			continue
		}
		if p == myClaim {
			m.out[p] = m.claimPrio > om.Prio
		} else {
			m.out[p] = false // their claim, uncontested by us
		}
	}
}

func (m *orient) Output() any {
	return OrientResult{
		Label:        lcl.OrientationLabel{Out: append([]bool(nil), m.out...)},
		LastSinkStep: m.lastSink,
	}
}

// OrientLabels extracts the orientation labels from a run's outputs.
func OrientLabels(outputs []any) []lcl.OrientationLabel {
	labels := make([]lcl.OrientationLabel, len(outputs))
	for v, o := range outputs {
		labels[v] = o.(OrientResult).Label
	}
	return labels
}

// LastSinkSteps extracts the convergence diagnostics.
func LastSinkSteps(outputs []any) []int {
	steps := make([]int, len(outputs))
	for v, o := range outputs {
		steps[v] = o.(OrientResult).LastSinkStep
	}
	return steps
}
