// Package mis implements maximal independent set algorithms in both LOCAL
// model variants — the Section I context of the paper ("for most problems
// the best randomized algorithm is at least exponentially faster than the
// best deterministic algorithm"):
//
//   - Luby's RandLOCAL algorithm: O(log n) rounds with high probability,
//     no IDs needed.
//   - A DetLOCAL algorithm via Linial's coloring: compute a (Δ+1)-coloring
//     in O(log* n + Δ log Δ) rounds (Theorem 2 + Kuhn–Wattenhofer), then
//     sweep the Δ+1 color classes — O(Δ + log* n)-flavored overall,
//     mirroring the deterministic bounds cited in the paper [9].
//
// Outputs are bool ("in the MIS"); a vertex that fails to decide within its
// round budget (possible only for the randomized algorithm, with
// probability 1/poly(n)) outputs false and is caught by the LCL verifier
// as a maximality violation — failures are visible, never silent.
package mis

import (
	"fmt"

	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// state is a vertex's MIS status.
type state int

const (
	stateUndecided state = iota + 1
	stateIn
	stateOut
)

// lubyMsg is the per-step broadcast of the Luby machine.
type lubyMsg struct {
	State    state
	Priority uint64
}

type luby struct {
	env    sim.Env
	st     state
	prio   uint64
	nbrSt  []state
	phases int
	send   []sim.Message // reused state broadcast
}

var _ sim.Machine = (*luby)(nil)

// NewLubyFactory returns Luby's randomized MIS machine.
func NewLubyFactory() sim.Factory {
	return func() sim.Machine { return &luby{} }
}

func (m *luby) Init(env sim.Env) {
	m.env = env
	m.st = stateUndecided
	m.nbrSt = make([]state, env.Degree)
	// The phase budget is far beyond the O(log n) whp bound.
	m.phases = 8*mathx.CeilLog2(env.N+1) + 16
	if env.Rand == nil {
		panic("mis: Luby is a RandLOCAL algorithm; Config.Randomized required")
	}
}

// Step runs two sub-steps per phase: (A) undecided vertices draw and
// broadcast priorities, (B) local maxima join and announce; vertices
// adjacent to a joiner drop out at the start of the next phase.
func (m *luby) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		lm, ok := msg.(lubyMsg)
		if !ok {
			panic(fmt.Sprintf("mis: unexpected message %T", msg))
		}
		m.nbrSt[p] = lm.State
		if m.st == stateUndecided && step%2 == 1 && lm.State == stateUndecided {
			// Phase decision happens on odd steps (B): compare priorities.
			if lm.Priority > m.prio || (lm.Priority == m.prio && lm.Priority != 0) {
				// Not a strict local maximum this phase (ties lose).
				m.prio = 0 // mark: cannot join this phase
			}
		}
	}
	// Drop out if any neighbor is In.
	if m.st == stateUndecided {
		for _, s := range m.nbrSt {
			if s == stateIn {
				m.st = stateOut
				break
			}
		}
	}
	if m.st != stateUndecided {
		// Announce the final state once more, then halt.
		return sim.BroadcastInto(&m.send, m.env.Degree, lubyMsg{State: m.st}), true
	}
	if step/2 >= m.phases {
		return nil, true // budget exhausted: fail visibly (remain undecided)
	}
	if step%2 == 0 {
		// Sub-step A: draw a fresh priority (nonzero so 0 can mean "lost").
		m.prio = m.env.Rand.Uint64() | 1
		return sim.BroadcastInto(&m.send, m.env.Degree, lubyMsg{State: m.st, Priority: m.prio}), false
	}
	// Sub-step B: if still holding a nonzero priority, all undecided
	// neighbors were smaller: join.
	if m.prio != 0 {
		m.st = stateIn
		return sim.BroadcastInto(&m.send, m.env.Degree, lubyMsg{State: m.st}), true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, lubyMsg{State: m.st}), false
}

func (m *luby) Output() any { return m.st == stateIn }

// linialOptions is the inner Linial+KW run on an n-vertex graph of maximum
// degree maxDeg: IDs 1..n to a (maxDeg+1)-coloring.
func linialOptions(n, maxDeg int) linial.Options {
	return linial.Options{
		InitialPalette: n,
		Delta:          maxDeg,
		Target:         maxDeg + 1,
		KW:             true,
	}
}

// detPlan is what every det machine of a run shares: the degree bound, the
// inner Linial factory (which holds Linial's own plan) and the step at
// which the inner machine halts.
type detPlan struct {
	delta  int
	linial sim.Factory
	linSt  int
}

func newDetPlan(n, maxDeg int) detPlan {
	lin, rounds := linial.NewFactoryRounds(linialOptions(n, maxDeg))
	return detPlan{delta: maxDeg, linial: lin, linSt: rounds + 1}
}

// det runs Linial+KW to a (Δ+1)-coloring, then sweeps the color classes.
type det struct {
	plans  *sim.PlanMemo[detPlan]
	plan   *detPlan
	env    sim.Env
	linial sim.Machine
	color  int
	st     state
	send   []sim.Message // reused state broadcast
}

var _ sim.Machine = (*det)(nil)

// NewDetFactory returns the deterministic MIS machine.
func NewDetFactory() sim.Factory {
	plans := sim.NewPlanMemo(newDetPlan)
	return func() sim.Machine { return &det{plans: plans} }
}

func (m *det) Init(env sim.Env) {
	m.env = env
	m.plan = m.plans.Get(env)
	m.linial = m.plan.linial()
	m.linial.Init(env)
	m.st = stateUndecided
}

// detMsg is the sweep-phase broadcast.
type detMsg struct {
	State state
}

func (m *det) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step <= m.plan.linSt {
		send, done := m.linial.Step(step, recv)
		if done {
			m.color = m.linial.Output().(int) // 1-based
		}
		if step < m.plan.linSt {
			return send, false
		}
		// Transition step: start the sweep broadcasting our state.
		return sim.BroadcastInto(&m.send, m.env.Degree, detMsg{State: m.st}), false
	}
	// Sweep: class c = step - linSt.
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		dm, ok := msg.(detMsg)
		if !ok {
			panic(fmt.Sprintf("mis: unexpected sweep message %T", msg))
		}
		if dm.State == stateIn && m.st == stateUndecided {
			m.st = stateOut
		}
	}
	class := step - m.plan.linSt
	if m.st == stateUndecided && m.color == class {
		m.st = stateIn
	}
	if class > m.plan.delta+1 {
		if m.st == stateUndecided {
			panic("mis: vertex undecided after all classes (internal bug)")
		}
		return nil, true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, detMsg{State: m.st}), false
}

func (m *det) Output() any { return m.st == stateIn }

// DetRounds predicts the deterministic machine's round count.
func DetRounds(n, maxDeg int) int {
	// linial steps (rounds+1 including its final absorb step) then Δ+2
	// sweep steps; the machine halts at step linSt + Δ+2, so rounds are
	// linSt + Δ + 1.
	return newDetPlan(n, maxDeg).linSt + maxDeg + 1
}
