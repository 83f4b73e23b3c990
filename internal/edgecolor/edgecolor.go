// Package edgecolor implements deterministic distributed (2Δ-1)-edge
// coloring — one of the symmetry-breaking problems in the paper's Section I
// survey ("(2Δ-1)-edge coloring is much easier than maximal matching..."
// [20]) and a useful substrate: a proper edge coloring is a schedule, and
// sweeping its classes yields matchings, orientations, and the sinkless
// instances' input labelings.
//
// The algorithm runs Linial's reduction on the LINE GRAPH without
// materializing it: every vertex locally hosts its incident edges; an
// edge's color is recomputed identically by both endpoints from the colors
// of all edges adjacent to it (their union is exactly the line-graph
// neighborhood, of size at most 2Δ-2). The initial coloring derives from
// the endpoint ID pair; Theorem 2 iterations shrink the palette to
// O(Δ²) in O(log* n) rounds and the Kuhn–Wattenhofer block reduction
// finishes at 2Δ-1 in O(Δ log Δ) more.
package edgecolor

import (
	"fmt"

	"locality/internal/graph"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// Result is the per-vertex output: the final color of each incident edge in
// port order. Both endpoints of an edge compute the same color; the
// EdgeColors helper reconciles per-vertex outputs into a per-edge table and
// reports any disagreement.
type Result struct {
	PortColors []int
}

// Plan is the reduction schedule every machine of a run shares read-only.
type Plan struct {
	idSpace int // vertex IDs lie in 1..idSpace
	palette int // final colors lie in 1..palette
	red     linial.Reduction
}

// NewPlan plans the line-graph reduction on a graph with n vertices (IDs
// 1..n) and maximum degree Δ = maxDeg: Theorem 2 from the n² palette on
// line-graph degree 2Δ-2, then Kuhn–Wattenhofer down to 2Δ-1 colors.
func NewPlan(n, maxDeg int) Plan {
	palette := mathx.Max(1, 2*maxDeg-1)
	return Plan{idSpace: n, palette: palette,
		red: linial.NewReduction(n*n, mathx.Max(1, 2*maxDeg-2), palette, true)}
}

// Rounds is the round count of a machine on p.
func (p *Plan) Rounds() int { return 1 + p.red.Steps() }

// Palette is the final palette 2Δ-1: colors lie in 1..Palette().
func (p *Plan) Palette() int { return p.palette }

// Rounds predicts the machine's round count.
func Rounds(n, maxDeg int) int {
	p := NewPlan(n, maxDeg)
	return p.Rounds()
}

// hello is the step-1 message on each port: the sender's ID and its port
// index of the shared edge, which the receiver records once.
type hello struct {
	ID       uint64
	ThisPort int
}

// colorsMsg is the broadcast of every later step: the sender's incident
// edge colors in port order, one value shared by all ports.
type colorsMsg struct {
	EdgeColors []int
}

type machine struct {
	plans  *sim.PlanMemo[Plan]
	plan   *Plan
	env    sim.Env
	colors []int         // never written after it is sent; each step builds a new one
	rev    []int         // rev[p]: the neighbor's port of the edge at port p
	nbrs   []int         // reused line-graph neighbor colors of one edge
	used   []bool        // reused reduction color set
	out    []sim.Message // reused send slice
}

var _ sim.Machine = (*machine)(nil)

// NewFactory returns the deterministic (2Δ-1)-edge-coloring machine.
func NewFactory() sim.Factory {
	plans := sim.NewPlanMemo(NewPlan)
	return func() sim.Machine { return &machine{plans: plans} }
}

// NewMachine returns one edge-coloring machine that runs on a plan its
// caller already holds; deterministic maximal matching embeds it this way.
// The machine's final colors are its Output at step Rounds()+1.
func NewMachine(plan *Plan) sim.Machine {
	return &machine{plan: plan}
}

func (m *machine) Init(env sim.Env) {
	if !env.HasID {
		panic("edgecolor: deterministic machine requires IDs")
	}
	m.env = env
	if m.plans != nil {
		m.plan = m.plans.Get(env)
	}
}

// Step: step 1 sends the vertex ID and the port on every port, step 2
// records the neighbors' ports and derives the initial edge colors from
// the ID pairs, and step s >= 3 applies reduction step s-3 to every
// incident edge; the machine halts once the last one is applied. From
// step 2 on, every port gets the same colorsMsg.
func (m *machine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	n := m.plan.red.Steps()
	switch {
	case step == 1:
		m.out = m.out[:0]
		for p := 0; p < m.env.Degree; p++ {
			m.out = append(m.out, hello{ID: m.env.ID, ThisPort: p})
		}
		return m.out, false
	case step == 2:
		m.colors = make([]int, m.env.Degree)
		m.rev = make([]int, m.env.Degree)
		for p, raw := range recv {
			h := raw.(hello)
			m.colors[p] = m.initialColor(m.env.ID, h.ID)
			m.rev[p] = h.ThisPort
		}
		return m.broadcast(), false
	case step <= 2+n:
		m.reduce(step-3, recv)
		if step == 2+n {
			return nil, true
		}
		return m.broadcast(), false
	default:
		return nil, true
	}
}

// initialColor ranks the ID pair in the n² palette; both endpoints compute
// the same value.
func (m *machine) initialColor(a, b uint64) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return int(lo-1)*m.plan.idSpace + int(hi-1)
}

// reduce applies reduction step i to every incident edge, from the union
// of both endpoints' incident colors.
func (m *machine) reduce(i int, recv []sim.Message) {
	next := make([]int, m.env.Degree)
	for p := range next {
		mm, ok := recv[p].(colorsMsg)
		if !ok {
			panic(fmt.Sprintf("edgecolor: expected colors on port %d, got %T", p, recv[p]))
		}
		nbrs := m.nbrs[:0]
		for q, c := range m.colors {
			if q != p {
				nbrs = append(nbrs, c)
			}
		}
		for q, c := range mm.EdgeColors {
			if q != m.rev[p] {
				nbrs = append(nbrs, c)
			}
		}
		m.nbrs = nbrs
		next[p] = m.plan.red.Apply(i, m.colors[p], nbrs, &m.used)
	}
	m.colors = next
}

// broadcast sends the incident edge colors, boxed once, on every port; the
// slice is never written again.
func (m *machine) broadcast() []sim.Message {
	return sim.BroadcastInto(&m.out, m.env.Degree, colorsMsg{EdgeColors: m.colors})
}

func (m *machine) Output() any {
	out := make([]int, len(m.colors))
	for p, c := range m.colors {
		out[p] = c + 1 // 1-based palette
	}
	return Result{PortColors: out}
}

// EdgeColors reconciles the per-vertex outputs into a per-edge color table
// and errors if the two endpoints of any edge disagree (which would be an
// implementation bug, caught here rather than silently mis-verified).
func EdgeColors(g *graph.Graph, outputs []any) ([]int, error) {
	colors := make([]int, g.M())
	for i := range colors {
		colors[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		res, ok := outputs[v].(Result)
		if !ok {
			return nil, fmt.Errorf("edgecolor: output %d is %T", v, outputs[v])
		}
		if len(res.PortColors) != g.Degree(v) {
			return nil, fmt.Errorf("edgecolor: vertex %d has %d port colors for degree %d",
				v, len(res.PortColors), g.Degree(v))
		}
		for p, h := range g.Ports(v) {
			c := res.PortColors[p]
			if colors[h.Edge] == -1 {
				colors[h.Edge] = c
			} else if colors[h.Edge] != c {
				return nil, fmt.Errorf("edgecolor: edge %d colored %d and %d by its endpoints",
					h.Edge, colors[h.Edge], c)
			}
		}
	}
	return colors, nil
}
