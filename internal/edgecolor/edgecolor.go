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

// Options configures the edge-coloring machine.
type Options struct {
	// IDSpace bounds the vertex IDs (1..IDSpace); 0 means Env.N.
	IDSpace int
	// Delta bounds the maximum degree; 0 means Env.MaxDeg.
	Delta int
	// Target is the final palette; 0 means 2Δ-1 (it must be at least
	// 2Δ-1 so a free color always exists during reductions).
	Target int
}

// Result is the per-vertex output: the final color of each incident edge in
// port order. Both endpoints of an edge compute the same color; the
// EdgeColors helper reconciles per-vertex outputs into a per-edge table and
// reports any disagreement.
type Result struct {
	PortColors []int
}

// plan is the reduction schedule every machine of a run shares read-only.
type plan struct {
	opt   Options // resolved against the graph
	sched []linial.Family
	fp    int
	kw    linial.KWPlan
	kwAt  [][2]int
}

func newPlan(opt Options, n, maxDeg int) plan {
	if opt.IDSpace == 0 {
		opt.IDSpace = n
	}
	if opt.Delta == 0 {
		opt.Delta = maxDeg
	}
	if opt.Target == 0 {
		opt.Target = mathx.Max(1, 2*opt.Delta-1)
	}
	if opt.Target < 2*opt.Delta-1 {
		panic(fmt.Sprintf("edgecolor: target %d below 2Δ-1 = %d", opt.Target, 2*opt.Delta-1))
	}
	k0 := opt.IDSpace * opt.IDSpace
	p := plan{opt: opt, sched: linial.Schedule(k0, mathx.Max(1, 2*opt.Delta-2))}
	p.fp = linial.FixedPointOf(k0, p.sched)
	if p.fp > opt.Target {
		p.kw = linial.NewKWPlan(p.fp, opt.Target)
		for i := range p.kw.Palettes {
			for j := 0; j < p.kw.PassLen(i); j++ {
				p.kwAt = append(p.kwAt, [2]int{i, j})
			}
		}
	}
	return p
}

// Rounds predicts the machine's round count.
func Rounds(opt Options, n, maxDeg int) int {
	p := newPlan(opt, n, maxDeg)
	return 1 + len(p.sched) + len(p.kwAt)
}

// msg is the per-port broadcast: the sender's incident edge colors plus the
// port index of the shared edge on the sender's side.
type msg struct {
	ID         uint64
	EdgeColors []int
	ThisPort   int
}

type machine struct {
	plans  *sim.PlanMemo[plan]
	plan   *plan
	env    sim.Env
	colors []int
}

var _ sim.Machine = (*machine)(nil)

// NewFactory returns the deterministic (2Δ-1)-edge-coloring machine.
func NewFactory(opt Options) sim.Factory {
	plans := sim.NewPlanMemo(func(n, maxDeg int) plan { return newPlan(opt, n, maxDeg) })
	return func() sim.Machine { return &machine{plans: plans} }
}

func (m *machine) Init(env sim.Env) {
	if !env.HasID {
		panic("edgecolor: deterministic machine requires IDs")
	}
	m.env = env
	m.plan = m.plans.Get(env)
	m.colors = make([]int, env.Degree)
}

func (m *machine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	s, k := len(m.plan.sched), len(m.plan.kwAt)
	switch {
	case step == 1:
		return m.send(true), false
	case step == 2:
		for p, raw := range recv {
			mm := raw.(msg)
			m.colors[p] = m.initialColor(m.env.ID, mm.ID)
		}
		return m.send(false), false
	case step <= 2+s:
		fam := m.plan.sched[step-3]
		m.reduce(recv, fam.Reduce)
		if step == 2+s && k == 0 {
			return nil, true
		}
		return m.send(false), false
	case step <= 2+s+k:
		pass, sub := m.plan.kwAt[step-3-s][0], m.plan.kwAt[step-3-s][1]
		m.reduce(recv, func(own int, nbrs []int) int {
			return m.plan.kw.Recolor(pass, sub, own, nbrs)
		})
		if step == 2+s+k {
			return nil, true
		}
		return m.send(false), false
	default:
		return nil, true
	}
}

// initialColor ranks the ID pair in the IDSpace² palette; both endpoints
// compute the same value.
func (m *machine) initialColor(a, b uint64) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return int(lo-1)*m.plan.opt.IDSpace + int(hi-1)
}

// reduce recomputes every incident edge's color from the union of both
// endpoints' incident colors.
func (m *machine) reduce(recv []sim.Message, f func(own int, nbrs []int) int) {
	next := make([]int, m.env.Degree)
	for p := range next {
		mm, ok := recv[p].(msg)
		if !ok {
			panic(fmt.Sprintf("edgecolor: expected msg on port %d, got %T", p, recv[p]))
		}
		nbrs := make([]int, 0, 2*m.plan.opt.Delta)
		for q, c := range m.colors {
			if q != p {
				nbrs = append(nbrs, c)
			}
		}
		for q, c := range mm.EdgeColors {
			if q != mm.ThisPort {
				nbrs = append(nbrs, c)
			}
		}
		next[p] = f(m.colors[p], nbrs)
	}
	m.colors = next
}

func (m *machine) send(withID bool) []sim.Message {
	out := make([]sim.Message, m.env.Degree)
	for p := range out {
		mm := msg{ThisPort: p, EdgeColors: append([]int(nil), m.colors...)}
		if withID {
			mm.ID = m.env.ID
		}
		out[p] = mm
	}
	return out
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
