package sinkless

import (
	"fmt"

	"locality/internal/lcl"
	"locality/internal/sim"
)

// This file implements the constructive directions of Lemmas 1 and 2 as
// machine transformers, plus a direct sinkless-coloring algorithm obtained
// by composing them with the randomized orientation machine.
//
// Lemma 1 direction (coloring -> orientation): a vertex with color c
// orients its unique ψ=c incident edge outward (a proper Δ-edge coloring of
// a Δ-regular graph shows every color at every vertex, so the edge exists
// and out-degree >= 1 everywhere). The remaining edges are oriented by
// comparing endpoint colors, with random bits breaking exact ties. An edge
// is claimed by both endpoints iff both endpoints have the edge's color —
// precisely the sinkless-coloring forbidden configuration, which is the
// failure correspondence in the lemma.
//
// Lemma 2 direction (orientation -> coloring): a vertex adopts the edge
// color of one outgoing edge. color(u) = color(v) = ψ(e) would need both
// endpoints to have picked e outgoing — impossible in a consistent
// orientation — so the derived coloring fails only at sinks (which have no
// outgoing edge and fall back to the color of port 0), again the lemma's
// failure correspondence.

// orientFromColoring wraps an inner sinkless-coloring machine.
type orientFromColoring struct {
	inner     sim.Machine
	env       sim.Env
	colors    []int
	innerDone bool
	color     int
	tie       uint64
	nbrColor  []int
	nbrTie    []uint64
	nbrKnown  []bool
	announced bool
	// innerRecv and send are reused every step: the unwrapped inbox handed
	// to the inner machine, and the outgoing wrapped traffic.
	innerRecv []sim.Message
	send      []sim.Message
}

var _ sim.Machine = (*orientFromColoring)(nil)

// wrapped distinguishes inner-machine traffic from the transform's own
// final exchange.
type wrapped struct {
	Inner sim.Message
	Final bool
	Color int
	Tie   uint64
}

// NewOrientFromColoringFactory derives a Δ-sinkless-orientation machine
// from a Δ-sinkless-coloring machine (the executable core of Lemma 1).
// The inner machine must output an int color.
func NewOrientFromColoringFactory(inner sim.Factory) sim.Factory {
	return func() sim.Machine { return &orientFromColoring{inner: inner()} }
}

func (m *orientFromColoring) Init(env sim.Env) {
	m.env = env
	m.colors = VertexColors(env)
	m.inner.Init(env)
	if env.Rand == nil {
		panic("sinkless: the Lemma 1 transform needs random tie-break bits")
	}
	m.tie = env.Rand.Uint64()
	m.nbrColor = make([]int, env.Degree)
	m.nbrTie = make([]uint64, env.Degree)
	m.nbrKnown = make([]bool, env.Degree)
	m.innerRecv = make([]sim.Message, env.Degree)
	m.send = make([]sim.Message, env.Degree)
}

func (m *orientFromColoring) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	// Split the traffic.
	innerRecv := m.innerRecv
	clear(innerRecv)
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		w, ok := msg.(wrapped)
		if !ok {
			panic(fmt.Sprintf("sinkless: unexpected message %T", msg))
		}
		if w.Final {
			m.nbrColor[p] = w.Color
			m.nbrTie[p] = w.Tie
			m.nbrKnown[p] = true
		} else {
			innerRecv[p] = w.Inner
		}
	}
	if !m.innerDone {
		send, done := m.inner.Step(step, innerRecv)
		if done {
			m.innerDone = true
			c, ok := m.inner.Output().(int)
			if !ok {
				panic(fmt.Sprintf("sinkless: inner coloring output is %T, want int", m.inner.Output()))
			}
			m.color = c
			// Fall through to announce the final color this step.
		} else {
			out := m.send
			clear(out)
			for p := range out {
				if p < len(send) && send[p] != nil {
					out[p] = wrapped{Inner: send[p]}
				}
			}
			return out, false
		}
	}
	if !m.announced {
		m.announced = true
		return sim.BroadcastInto(&m.send, m.env.Degree, wrapped{Final: true, Color: m.color, Tie: m.tie}), false
	}
	// Done once all neighbors' final colors are in.
	for p := 0; p < m.env.Degree; p++ {
		if !m.nbrKnown[p] {
			return nil, false
		}
	}
	return nil, true
}

// Output derives the orientation from the exchanged colors.
func (m *orientFromColoring) Output() any {
	out := make([]bool, m.env.Degree)
	for p := 0; p < m.env.Degree; p++ {
		psi := m.colors[p]
		mine := m.color == psi
		theirs := m.nbrColor[p] == psi
		switch {
		case mine && !theirs:
			out[p] = true
		case theirs && !mine:
			out[p] = false
		case mine && theirs:
			// Forbidden monochromatic configuration: both endpoints claim;
			// both report "out", which the verifier flags — the Lemma 1
			// failure correspondence.
			out[p] = true
		default:
			// Neither endpoint owns the color: orient by color comparison,
			// random bits breaking ties (a tie of both colors and both
			// 64-bit draws makes both report "in" and the verifier flags
			// the edge).
			if m.color != m.nbrColor[p] {
				out[p] = m.color > m.nbrColor[p]
			} else {
				out[p] = m.tie > m.nbrTie[p]
			}
		}
	}
	return lcl.OrientationLabel{Out: out}
}

// coloringFromOrientation wraps an inner sinkless-orientation machine
// (the executable core of Lemma 2). Zero extra rounds: the color is a
// function of the inner output and the input edge colors.
type coloringFromOrientation struct {
	inner  sim.Machine
	env    sim.Env
	colors []int
}

var _ sim.Machine = (*coloringFromOrientation)(nil)

// NewColoringFromOrientationFactory derives a Δ-sinkless-coloring machine
// from a Δ-sinkless-orientation machine. The inner machine must output
// OrientResult or lcl.OrientationLabel.
func NewColoringFromOrientationFactory(inner sim.Factory) sim.Factory {
	return func() sim.Machine { return &coloringFromOrientation{inner: inner()} }
}

func (m *coloringFromOrientation) Init(env sim.Env) {
	m.env = env
	m.colors = VertexColors(env)
	m.inner.Init(env)
}

func (m *coloringFromOrientation) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	return m.inner.Step(step, recv)
}

func (m *coloringFromOrientation) Output() any {
	var label lcl.OrientationLabel
	switch o := m.inner.Output().(type) {
	case OrientResult:
		label = o.Label
	case lcl.OrientationLabel:
		label = o
	default:
		panic(fmt.Sprintf("sinkless: inner orientation output is %T", o))
	}
	for p, isOut := range label.Out {
		if isOut {
			return m.colors[p]
		}
	}
	// Sink: no outgoing edge. Fall back to the first port's color; the
	// verifier may flag the resulting configuration — the Lemma 2 failure
	// correspondence.
	if m.env.Degree > 0 {
		return m.colors[0]
	}
	return 1
}
