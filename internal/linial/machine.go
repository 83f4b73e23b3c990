package linial

import (
	"fmt"

	"locality/internal/sim"
)

// Options configures a standalone Linial coloring machine.
type Options struct {
	// InitialPalette is k0: every initial color must lie in 0..k0-1.
	InitialPalette int
	// Delta is the degree bound the reduction tolerates.
	Delta int
	// InitialColor extracts a vertex's initial color (0-based) from its
	// environment. Nil means ID-1 (the DetLOCAL convention: unique IDs in
	// 1..k0 are a k0-coloring, exactly how the paper bootstraps Theorem 2).
	InitialColor func(env sim.Env) int
	// Target, when positive, appends a color-class sweep reducing the
	// fixed-point palette further down to Target colors (0..Target-1);
	// Target must be at least Delta+1. Zero means stop at the fixed point.
	Target int
	// KW selects the Kuhn–Wattenhofer block reduction for the final sweep:
	// O(Target·log(fp/Target)) rounds instead of fp-Target. Ignored when
	// Target is zero.
	KW bool
}

// Machine executes Theorem 2 (and optionally the class sweep) as a
// standalone simulator machine. Output is the final color, 1-based, as the
// rest of the library expects.
type Machine struct {
	opt   Options
	env   sim.Env
	plan  *plan
	color int           // current 0-based color
	send  []sim.Message // reused color broadcast
}

var _ sim.Machine = (*Machine)(nil)

// plan is everything a machine derives from Options alone. NewFactory builds
// it once and every machine of the factory shares it read-only.
type plan struct {
	sched []Family
	m     int // fixed-point palette size
	kw    KWPlan
	// kwAt[s] = (pass, substep) for KW sweep step s (0-based).
	kwAt [][2]int
	// sweep is the number of steps after the schedule: one per swept color
	// class, or one per KW sub-step.
	sweep int
}

func newPlan(opt Options) *plan {
	p := &plan{sched: Schedule(opt.InitialPalette, opt.Delta)}
	p.m = FixedPointOf(opt.InitialPalette, p.sched)
	if opt.Target != 0 && opt.KW {
		p.kw = NewKWPlan(p.m, opt.Target)
		for i := range p.kw.Palettes {
			for j := 0; j < p.kw.PassLen(i); j++ {
				p.kwAt = append(p.kwAt, [2]int{i, j})
			}
		}
	}
	if opt.Target != 0 && p.m > opt.Target {
		if opt.KW {
			p.sweep = len(p.kwAt)
		} else {
			p.sweep = p.m - opt.Target
		}
	}
	return p
}

// rounds is the round cost of the plan: the schedule length plus the sweep
// length.
func (p *plan) rounds() int { return len(p.sched) + p.sweep }

// NewFactory returns a factory of Linial machines. It panics on option
// errors (misuse by the caller, not runtime input).
func NewFactory(opt Options) sim.Factory {
	f, _ := NewFactoryRounds(opt)
	return f
}

// NewFactoryRounds is NewFactory that also returns Rounds(opt), read off the
// plan the factory's machines share instead of a second build of it.
func NewFactoryRounds(opt Options) (sim.Factory, int) {
	if opt.InitialPalette < 1 {
		panic("linial: InitialPalette must be >= 1")
	}
	if opt.Target != 0 && opt.Target < opt.Delta+1 {
		panic(fmt.Sprintf("linial: Target %d < Delta+1 = %d", opt.Target, opt.Delta+1))
	}
	p := newPlan(opt)
	return func() sim.Machine {
		return &Machine{opt: opt, plan: p}
	}, p.rounds()
}

// Init implements sim.Machine.
func (m *Machine) Init(env sim.Env) {
	m.env = env
	if m.opt.InitialColor != nil {
		m.color = m.opt.InitialColor(env)
	} else {
		if !env.HasID {
			panic("linial: default initial coloring needs IDs (DetLOCAL)")
		}
		m.color = int(env.ID) - 1
	}
	if m.color < 0 || m.color >= m.opt.InitialPalette {
		panic(fmt.Sprintf("linial: initial color %d outside 0..%d", m.color, m.opt.InitialPalette-1))
	}
}

// Step implements sim.Machine. Steps 2..len(sched)+1 apply one family each;
// the sweep (if any) occupies the following m-Target steps.
func (m *Machine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step == 1 {
		if m.totalSteps() == 1 {
			// Nothing to reduce: the initial coloring is already final.
			return nil, true
		}
		return sim.BroadcastInto(&m.send, m.env.Degree, m.color), false
	}
	nbrs := decodeColors(recv)
	p := m.plan
	reduceIdx := step - 2
	switch {
	case reduceIdx < len(p.sched):
		m.color = p.sched[reduceIdx].Reduce(m.color, nbrs)
	case m.opt.KW && m.opt.Target != 0:
		sweepStep := reduceIdx - len(p.sched)
		if sweepStep >= len(p.kwAt) {
			return nil, true
		}
		pass, sub := p.kwAt[sweepStep][0], p.kwAt[sweepStep][1]
		m.color = p.kw.Recolor(pass, sub, m.color, nbrs)
	default:
		sweepStep := reduceIdx - len(p.sched) // 0-based sweep step
		if m.opt.Target == 0 || m.opt.Target >= p.m {
			return nil, true
		}
		class := p.m - 1 - sweepStep // recolor classes from the top down
		if class < m.opt.Target {
			return nil, true
		}
		if m.color == class {
			m.color = smallestFree(nbrs, m.opt.Target)
		}
	}
	// Halt early if nothing remains to do after this broadcast.
	if step >= m.totalSteps() {
		return nil, true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, m.color), false
}

// totalSteps is the step at which the machine halts: one initial broadcast
// step, one step per schedule entry, one per sweep class (or KW sub-step).
func (m *Machine) totalSteps() int { return 1 + m.plan.rounds() }

// Output implements sim.Machine: the final color, 1-based.
func (m *Machine) Output() any { return m.color + 1 }

// decodeColors converts received messages to neighbor colors; nil messages
// become -1 ("no constraint").
func decodeColors(recv []sim.Message) []int {
	nbrs := make([]int, len(recv))
	for p, msg := range recv {
		if msg == nil {
			nbrs[p] = -1
			continue
		}
		nbrs[p] = msg.(int)
	}
	return nbrs
}

// smallestFree returns the smallest color in 0..limit-1 not present in nbrs.
// It panics if none is free (cannot happen when limit > len(nbrs)).
func smallestFree(nbrs []int, limit int) int {
	used := make([]bool, limit)
	for _, nc := range nbrs {
		if nc >= 0 && nc < limit {
			used[nc] = true
		}
	}
	for c := 0; c < limit; c++ {
		if !used[c] {
			return c
		}
	}
	panic("linial: no free color in sweep (degree exceeds Target-1?)")
}

// Rounds predicts the round cost of a machine built with opt: the schedule
// length plus the sweep length. Useful for tests and the experiment tables.
func Rounds(opt Options) int { return newPlan(opt).rounds() }
