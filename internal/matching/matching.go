// Package matching implements maximal matching in both model variants —
// the second headline pair from the paper's Section I survey (randomized
// O(log Δ + log⁴ log n) [14] vs deterministic O(Δ + log* n)-flavored /
// O(log⁴ n) [12], [13]):
//
//   - A RandLOCAL proposal algorithm (Israeli–Itai style): unmatched
//     vertices flip sender/receiver coins, senders propose to a random
//     unmatched neighbor, receivers accept one proposal. O(log n) whp.
//   - A DetLOCAL algorithm on top of package edgecolor: (2Δ-1)-edge-color
//     the graph (Linial on the line graph, then Kuhn–Wattenhofer), then
//     sweep the color classes, adding an edge when both endpoints are
//     free. O(log* n + Δ log Δ + Δ) rounds, deterministic.
//
// Outputs are lcl.MatchLabel (the matched port, or -1), verified by the
// maximal-matching LCL checker.
package matching

import (
	"fmt"

	"locality/internal/edgecolor"
	"locality/internal/lcl"
	"locality/internal/mathx"
	"locality/internal/sim"
)

type randMsg struct {
	Matched  bool
	Proposal bool // set only on the proposed port in sub-step A
	Accept   bool // set only on the accepted port in sub-step B
}

type randMatch struct {
	env        sim.Env
	matched    int // port, -1 if unmatched
	nbrMatched []bool
	proposedTo int // port we proposed to this phase, -1
	phases     int
	send       []sim.Message // reused broadcast
}

var _ sim.Machine = (*randMatch)(nil)

// NewRandFactory returns the randomized maximal matching machine.
func NewRandFactory() sim.Factory {
	return func() sim.Machine { return &randMatch{} }
}

func (m *randMatch) Init(env sim.Env) {
	if env.Rand == nil {
		panic("matching: randomized machine requires Config.Randomized")
	}
	m.env = env
	m.matched = -1
	m.proposedTo = -1
	m.nbrMatched = make([]bool, env.Degree)
	m.phases = 8*mathx.CeilLog2(env.N+1) + 16
}

// Step: even steps are sub-step A (propose), odd steps (>= 3) are sub-step
// B (accept). Step 1 is a plain hello so everyone has fresh status.
func (m *randMatch) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	// Absorb neighbor statuses, acceptances and proposals.
	var proposals []int
	accepted := -1
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		rm, ok := msg.(randMsg)
		if !ok {
			panic(fmt.Sprintf("matching: unexpected message %T", msg))
		}
		if rm.Matched {
			m.nbrMatched[p] = true
		}
		if rm.Proposal {
			proposals = append(proposals, p)
		}
		if rm.Accept && p == m.proposedTo {
			accepted = p
		}
	}
	if m.matched < 0 && accepted >= 0 {
		m.matched = accepted
	}
	if m.matched >= 0 {
		// Announce once more so neighbors stop proposing, then halt.
		return sim.BroadcastInto(&m.send, m.env.Degree, randMsg{Matched: true}), true
	}
	// Unmatched: any unmatched neighbors left?
	anyFree := false
	for p := 0; p < m.env.Degree; p++ {
		if !m.nbrMatched[p] {
			anyFree = true
			break
		}
	}
	if !anyFree {
		return nil, true // maximality satisfied locally
	}
	if step/2 >= m.phases {
		return nil, true // budget exhausted; visible failure
	}
	switch {
	case step%2 == 0:
		// Sub-step A: coin flip; senders propose to one random free port.
		m.proposedTo = -1
		send := sim.BroadcastInto(&m.send, m.env.Degree, randMsg{})
		if m.env.Rand.Bool() {
			free := make([]int, 0, m.env.Degree)
			for p := 0; p < m.env.Degree; p++ {
				if !m.nbrMatched[p] {
					free = append(free, p)
				}
			}
			p := free[m.env.Rand.Intn(len(free))]
			m.proposedTo = p
			send[p] = randMsg{Proposal: true}
		}
		return send, false
	case step > 1:
		// Sub-step B: receivers (did not propose) accept the lowest
		// incoming proposal from a free neighbor.
		if m.proposedTo < 0 {
			for _, p := range proposals {
				if !m.nbrMatched[p] {
					m.matched = p
					send := sim.BroadcastInto(&m.send, m.env.Degree, randMsg{Matched: true})
					send[p] = randMsg{Matched: true, Accept: true}
					return send, true
				}
			}
		}
		return sim.BroadcastInto(&m.send, m.env.Degree, randMsg{}), false
	default:
		// Step 1: hello.
		return sim.BroadcastInto(&m.send, m.env.Degree, randMsg{}), false
	}
}

func (m *randMatch) Output() any { return lcl.MatchLabel(m.matched) }

// sweepMsg is the class-sweep broadcast.
type sweepMsg struct{ Matched bool }

type detMatch struct {
	plans   *sim.PlanMemo[edgecolor.Plan]
	plan    *edgecolor.Plan
	ec      sim.Machine // the embedded edge coloring
	env     sim.Env
	colors  []int // final 1-based color of the edge at each port
	matched int
	nbrFree []bool
	send    []sim.Message // reused sweep broadcast
}

var _ sim.Machine = (*detMatch)(nil)

// NewDetFactory returns the deterministic maximal matching machine.
func NewDetFactory() sim.Factory {
	plans := sim.NewPlanMemo(edgecolor.NewPlan)
	return func() sim.Machine { return &detMatch{plans: plans} }
}

func (m *detMatch) Init(env sim.Env) {
	if !env.HasID {
		panic("matching: deterministic machine requires IDs")
	}
	m.env = env
	m.plan = m.plans.Get(env)
	m.ec = edgecolor.NewMachine(m.plan)
	m.ec.Init(env)
	m.matched = -1
	m.nbrFree = make([]bool, env.Degree)
	for p := range m.nbrFree {
		m.nbrFree[p] = true
	}
}

// Step runs the edge coloring through step E = edgecolor's Rounds()+1, at
// which its colors are final, then sweeps the classes: step E+c matches a
// free edge of color c to a free neighbor, for c = 1..Palette() (2Δ-1),
// and the step after the last class halts once it has heard it.
func (m *detMatch) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	end := 1 + m.plan.Rounds()
	if step < end {
		return m.ec.Step(step, recv)
	}
	if step == end {
		m.ec.Step(step, recv)
		m.colors = m.ec.Output().(edgecolor.Result).PortColors
		m.ec = nil
		return sim.BroadcastInto(&m.send, m.env.Degree, sweepMsg{}), false
	}
	class := step - end
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		sm, ok := msg.(sweepMsg)
		if !ok {
			panic(fmt.Sprintf("matching: unexpected sweep message %T", msg))
		}
		if sm.Matched {
			m.nbrFree[p] = false
		}
	}
	if class > m.plan.Palette() {
		return nil, true
	}
	if m.matched < 0 {
		for p, c := range m.colors {
			if c == class && m.nbrFree[p] {
				m.matched = p
				break
			}
		}
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, sweepMsg{Matched: m.matched >= 0}), false
}

func (m *detMatch) Output() any { return lcl.MatchLabel(m.matched) }

// DetRounds predicts the deterministic machine's round count: the edge
// coloring, one step to start the sweep, and one step per color class.
func DetRounds(n, maxDeg int) int {
	p := edgecolor.NewPlan(n, maxDeg)
	return p.Rounds() + 1 + p.Palette()
}
