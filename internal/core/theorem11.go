package core

import (
	"fmt"

	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// T11Options configures the Theorem 11 machine.
type T11Options struct {
	// Delta is the palette size and degree bound. The paper proves the
	// algorithm for Delta >= 55; the machine runs for any Delta >= 4 and
	// the experiments measure where it actually starts succeeding.
	Delta int
	// SizeBound caps the shattered components Phase 2 must color; 0 means
	// max(32, 8·ceil(log2 n)), matching the O(log n) whp bound.
	SizeBound int
}

// T11Result is the per-vertex output of the Theorem 11 machine.
type T11Result struct {
	// Color is the final color in 1..Delta, or 0 on failure.
	Color int
	// Phase records where the color was assigned: 1 (MIS peeling),
	// 2 (shattered-component coloring) or 3 (final recoloring); 0 on
	// failure.
	Phase int
	// InS reports membership in the shattered set S (diagnostics for the
	// E3 experiment).
	InS bool
}

// Colors extracts the color labels from a run's outputs.
func Colors(outputs []any) []int {
	colors := make([]int, len(outputs))
	for v, o := range outputs {
		switch r := o.(type) {
		case T11Result:
			colors[v] = r.Color
		case T10Result:
			colors[v] = r.Color
		default:
			panic(fmt.Sprintf("core: output %d is %T, not a coloring result", v, o))
		}
	}
	return colors
}

// t11Plan is the round schedule every machine of a run shares read-only.
type t11Plan struct {
	opt T11Options // resolved against n
	// Bootstrap (random IDs -> base Δ+1 coloring): Linial, then KW.
	boot linial.Reduction
	// Phase 1: iterations of length Δ+3 steps each.
	iters int
	// Step boundaries (inclusive starts).
	bootEnd int // last bootstrap step
	p1End   int // last phase-1 step (including trailing finalize)
	sDetect int // step at which S membership is computed
	// Phase 2: the 3-coloring of S, from sDetect on.
	p2      phase2Plan
	p3Start int
	total   int // halting step
}

func newT11Plan(n int, opt T11Options) t11Plan {
	opt.SizeBound = phase2SizeBound(n, opt.SizeBound)
	p := t11Plan{opt: opt}
	p.boot = linial.NewReduction(1<<idBits, opt.Delta, opt.Delta+1, true)
	p.iters = mathx.Max(0, opt.Delta-3) // colors Δ down to 4
	// Step layout:
	//   1:                      draw ID, broadcast
	//   2..1+B:                 bootstrap reduction steps
	p.bootEnd = 1 + p.boot.Steps()
	//   each phase-1 iteration: Δ+3 steps; one trailing finalize step.
	p.p1End = p.bootEnd + p.iters*(opt.Delta+3) + 1
	//   S detection consumes the finalize broadcasts.
	p.sDetect = p.p1End + 1
	p.p2 = newPhase2Plan(n, 3, opt.SizeBound, p.sDetect)
	// One harvest step after the forest window, then Phase 3.
	p.p3Start = p.p2.end + 2
	// Phase 3 locals: 1 settle + (Δ+1) M1 sweep + (Δ+1) M2 sweep + 3
	// recolor steps; the machine halts at step total.
	p.total = p.p3Start + 2*opt.Delta + 7
	return p
}

// T11Rounds returns the total communication rounds of the Theorem 11
// machine for the given graph size.
func T11Rounds(n int, opt T11Options) int {
	return newT11Plan(n, opt).total - 1
}

// t11Status is the every-step broadcast.
type t11Status struct {
	ID     uint64
	Base   int     // bootstrap color (0-based); -1 before start
	Color  int     // final color, 0 = none
	InU    bool    // still uncolored and participating
	X      float64 // this iteration's random value
	HasX   bool
	InI    bool // joined this iteration's independent set
	Class3 int  // phase-3 class (1..3), 0 = none
}

type t11 struct {
	plans *sim.PlanMemo[t11Plan]
	plan  *t11Plan
	env   sim.Env

	id     uint64
	base   int
	color  int
	phase  int
	inU    bool
	failed bool

	x    float64
	hasX bool
	inI  bool

	inS    bool
	phase2 // the embedded Phase 2 forest coloring of S

	class3 int

	nbr       []t11Status
	heard     []bool // heard, fresh and used share one backing
	fresh     []bool
	used      []bool             // reused color set of the bootstrap and Phase 3
	nbrColors []int              // reused neighbor colors, one per port at most
	box       sim.Box[t11Status] // the last status broadcast, boxed
	send      []sim.Message      // reused status broadcast
}

var (
	_ sim.Machine = (*t11)(nil)
	_ sim.Sleeper = (*t11)(nil)
)

// NewT11Factory returns the Theorem 11 Δ-coloring machine.
func NewT11Factory(opt T11Options) sim.Factory {
	if opt.Delta < 4 {
		panic(fmt.Sprintf("core: Theorem 11 needs Delta >= 4, got %d", opt.Delta))
	}
	plans := sim.NewPlanMemo(func(n, _ int) t11Plan { return newT11Plan(n, opt) })
	return func() sim.Machine { return &t11{plans: plans} }
}

func (m *t11) Init(env sim.Env) {
	if env.Rand == nil {
		panic("core: Theorem 11 is a RandLOCAL algorithm; Config.Randomized required")
	}
	m.env = env
	m.plan = m.plans.Get(env)
	m.id = randomID(env)
	m.base = int(m.id) - 1
	m.inU = true
	d := env.Degree
	flags := make([]bool, 2*d+m.plan.opt.Delta+1)
	m.heard, m.fresh, m.used = flags[:d:d], flags[d:2*d:2*d], flags[2*d:]
	m.nbr = make([]t11Status, d)
	m.nbrColors = make([]int, 0, d)
}

func (m *t11) statusNow() t11Status {
	return t11Status{
		ID: m.id, Base: m.base, Color: m.color, InU: m.inU,
		X: m.x, HasX: m.hasX, InI: m.inI, Class3: m.class3,
	}
}

func (m *t11) absorb(recv []sim.Message) {
	for p, msg := range recv {
		m.fresh[p] = false
		if msg == nil {
			continue
		}
		st, ok := msg.(t11Status)
		if !ok {
			panic(fmt.Sprintf("core: unexpected message %T", msg))
		}
		m.nbr[p] = st
		m.heard[p] = true
		m.fresh[p] = true
	}
}

func (m *t11) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if m.failed {
		return nil, true
	}
	pl := m.plan
	// Phase 2's inner forest machine owns the message channel during its
	// window; everything else speaks t11Status.
	if pl.p2.owns(step) {
		return m.forestStep(step, recv)
	}
	m.absorb(recv)
	switch {
	case step <= pl.bootEnd:
		m.bootstrapStep(step)
	case step <= pl.p1End:
		m.phase1Step(step - pl.bootEnd)
	case step == pl.sDetect:
		m.detectS()
		m.startForest(&pl.p2, m.env, m.inS, m.id)
	case step < pl.p3Start:
		// Buffer step after the forest window: collect phase-2 colors.
		if c, ok := m.harvestForest(0); !ok {
			m.failed = true // Phase 2 left the vertex without a color
		} else if c != 0 {
			m.color, m.phase, m.inU = c, 2, false // 1..3
		}
	case step < pl.total:
		m.phase3Step(step - pl.p3Start + 1)
	default:
		return nil, true
	}
	if m.failed {
		return nil, true
	}
	msg, _ := m.box.Of(m.statusNow())
	return sim.BroadcastInto(&m.send, m.env.Degree, msg), false
}

// bootstrapStep runs random-ID Linial + KW to a (Δ+1)-coloring.
func (m *t11) bootstrapStep(step int) {
	if step == 1 {
		return // just broadcast the initial ID-derived color
	}
	nbrs := m.nbrColors[:0]
	for p := range m.nbr {
		if !m.fresh[p] {
			continue
		}
		if m.nbr[p].Base == m.base {
			m.failed = true // random-ID collision
			return
		}
		nbrs = append(nbrs, m.nbr[p].Base)
	}
	m.nbrColors = nbrs
	m.base = m.plan.boot.Apply(step-2, m.base, nbrs, &m.used)
}

// phase1Step runs the seeded-MIS peeling. Iterations have Δ+3 sub-steps:
//
//	sub 1:        finalize previous iteration's I (color i_prev), draw x
//	sub 2:        local minima join I
//	sub 3..Δ+3:   base-color class sweep completing the MIS
//
// One trailing step (local index iters*(Δ+3)+1) finalizes the last
// iteration.
func (m *t11) phase1Step(local int) {
	d := m.plan.opt.Delta
	iter := (local - 1) / (d + 3) // 0-based iteration
	sub := (local-1)%(d+3) + 1    // 1-based sub-step
	if iter >= m.plan.iters {
		m.finalizeIteration(m.plan.iters - 1)
		return
	}
	switch {
	case sub == 1:
		m.finalizeIteration(iter - 1)
		if m.inU {
			m.x = m.env.Rand.Float64()
			m.hasX = true
		}
	case sub == 2:
		if m.inU && m.hasX {
			isMin := true
			for p := range m.nbr {
				if m.fresh[p] && m.nbr[p].InU && m.nbr[p].HasX && m.nbr[p].X <= m.x {
					isMin = false
					break
				}
			}
			if isMin {
				m.inI = true
			}
		}
	default:
		class := sub - 3 // base-color class 0..Δ
		if m.inU && !m.inI && m.base == class && !m.anyNbrInI() {
			m.inI = true
		}
	}
}

func (m *t11) anyNbrInI() bool {
	for p := range m.nbr {
		if m.heard[p] && m.nbr[p].InU && m.nbr[p].InI {
			return true
		}
	}
	return false
}

// finalizeIteration colors iteration iter's independent set with color
// Δ-iter and resets the per-iteration state.
func (m *t11) finalizeIteration(iter int) {
	if iter < 0 {
		return
	}
	if m.inI {
		m.color = m.plan.opt.Delta - iter
		m.phase = 1
		m.inU = false
		m.inI = false
	}
	m.hasX = false
}

// detectS computes S = {v in U : |N(v) ∩ U| == 3}.
func (m *t11) detectS() {
	if !m.inU {
		return
	}
	uNbrs := 0
	for p := range m.nbr {
		if m.heard[p] && m.nbr[p].InU {
			uNbrs++
		}
	}
	if uNbrs > 3 {
		// Phase 1 invariant broken: the MIS peeling did not reduce the
		// uncolored degree to <= 3, which can only happen if some MIS was
		// not maximal (e.g. after an ID collision in the bootstrap).
		m.failed = true
		return
	}
	if uNbrs == 3 {
		m.inS = true
	}
}

// phase3Step 3-classes the leftover U (degree <= 2) via two base-color MIS
// sweeps, then greedily recolors class by class.
func (m *t11) phase3Step(local int) {
	d := m.plan.opt.Delta
	switch {
	case local == 1:
		// Settle: fresh statuses after the forest window.
	case local <= 1+(d+1):
		class := local - 2
		if m.inU && m.class3 == 0 && m.base == class && !m.anyNbrClass3(1) {
			m.class3 = 1
		}
	case local <= 1+2*(d+1):
		class := local - 2 - (d + 1)
		if m.inU && m.class3 == 0 && m.base == class && !m.anyNbrClass3(2) {
			m.class3 = 2
		}
	case local == 2+2*(d+1):
		if m.inU && m.class3 == 0 {
			m.class3 = 3
		}
		m.recolorIfClass(1)
	case local == 3+2*(d+1):
		m.recolorIfClass(2)
	case local == 4+2*(d+1):
		m.recolorIfClass(3)
	}
}

func (m *t11) anyNbrClass3(class int) bool {
	for p := range m.nbr {
		if m.heard[p] && m.nbr[p].InU && m.nbr[p].Class3 == class {
			return true
		}
	}
	return false
}

// recolorIfClass gives class-j vertices an available color: any color in
// 1..Δ not used by a colored neighbor. Phase 1 maximality guarantees
// availability exceeds the number of uncolored neighbors (see the paper's
// Phase 3 argument), so earlier-class recolorings cannot exhaust it.
func (m *t11) recolorIfClass(j int) {
	if !m.inU || m.class3 != j {
		return
	}
	nbrs := m.nbrColors[:0]
	for p := range m.nbr {
		if m.heard[p] {
			nbrs = append(nbrs, m.nbr[p].Color)
		}
	}
	m.nbrColors = nbrs
	c, ok := linial.FreeColor(nbrs, 1, m.plan.opt.Delta, &m.used)
	if !ok {
		m.failed = true // no available color: Phase 1/2 invariants broke
		return
	}
	m.color, m.phase, m.inU = c, 3, false
}

func (m *t11) Output() any {
	if m.failed || m.color == 0 {
		return T11Result{InS: m.inS}
	}
	return T11Result{Color: m.color, Phase: m.phase, InS: m.inS}
}
