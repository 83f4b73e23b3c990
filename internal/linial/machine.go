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
// standalone simulator machine. Its initial color is ID-1 (the DetLOCAL
// convention: unique IDs in 1..k0 are a k0-coloring, exactly how the paper
// bootstraps Theorem 2). Output is the final color, 1-based, as the rest of
// the library expects.
type Machine struct {
	opt   Options
	env   sim.Env
	plan  *Reduction    // shared read-only by every machine of the factory
	color int           // current 0-based color
	nbrs  []int         // reused decoded neighbor colors
	used  []bool        // reused sweep color set
	send  []sim.Message // reused color broadcast
}

var _ sim.Machine = (*Machine)(nil)

// NewFactory returns a factory of Linial machines. It panics on option
// errors (misuse by the caller, not runtime input).
func NewFactory(opt Options) sim.Factory {
	f, _ := NewFactoryRounds(opt)
	return f
}

// NewFactoryRounds is NewFactory that also returns Rounds(opt), read off the
// reduction the factory's machines share instead of a second build of it.
func NewFactoryRounds(opt Options) (sim.Factory, int) {
	if opt.InitialPalette < 1 {
		panic("linial: InitialPalette must be >= 1")
	}
	if opt.Target != 0 && opt.Target < opt.Delta+1 {
		panic(fmt.Sprintf("linial: Target %d < Delta+1 = %d", opt.Target, opt.Delta+1))
	}
	red := NewReduction(opt.InitialPalette, opt.Delta, opt.Target, opt.KW)
	return func() sim.Machine {
		return &Machine{opt: opt, plan: &red}
	}, red.Steps()
}

// Init implements sim.Machine.
func (m *Machine) Init(env sim.Env) {
	m.env = env
	if !env.HasID {
		panic("linial: the initial coloring needs IDs (DetLOCAL)")
	}
	m.color = int(env.ID) - 1
	if m.color < 0 || m.color >= m.opt.InitialPalette {
		panic(fmt.Sprintf("linial: initial color %d outside 0..%d", m.color, m.opt.InitialPalette-1))
	}
}

// Step implements sim.Machine: step 1 broadcasts the initial color, step
// s >= 2 applies reduction step s-2, and the machine halts at step
// 1+Steps() without a further broadcast.
func (m *Machine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step > 1 {
		m.nbrs = decodeColors(m.nbrs[:0], recv)
		m.color = m.plan.Apply(step-2, m.color, m.nbrs, &m.used)
	}
	if step >= 1+m.plan.Steps() {
		return nil, true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, m.color), false
}

// Output implements sim.Machine: the final color, 1-based.
func (m *Machine) Output() any { return m.color + 1 }

// decodeColors appends the neighbor colors carried by recv to nbrs; nil
// messages become -1 ("no constraint").
func decodeColors(nbrs []int, recv []sim.Message) []int {
	for _, msg := range recv {
		if msg == nil {
			nbrs = append(nbrs, -1)
			continue
		}
		nbrs = append(nbrs, msg.(int))
	}
	return nbrs
}

// Rounds predicts the round cost of a machine built with opt: the schedule
// length plus the sweep length. Useful for tests and the experiment tables.
func Rounds(opt Options) int {
	red := NewReduction(opt.InitialPalette, opt.Delta, opt.Target, opt.KW)
	return red.Steps()
}
