// Package matching implements maximal matching in both model variants —
// the second headline pair from the paper's Section I survey (randomized
// O(log Δ + log⁴ log n) [14] vs deterministic O(Δ + log* n)-flavored /
// O(log⁴ n) [12], [13]):
//
//   - A RandLOCAL proposal algorithm (Israeli–Itai style): unmatched
//     vertices flip sender/receiver coins, senders propose to a random
//     unmatched neighbor, receivers accept one proposal. O(log n) whp.
//   - A DetLOCAL algorithm via Linial on the line graph: vertices jointly
//     simulate their incident edges, reduce the edge coloring from the
//     ID-pair palette to 2Δ-1 colors (Theorem 2 + Kuhn–Wattenhofer), then
//     sweep the color classes, adding an edge when both endpoints are
//     free. O(log* n + Δ log Δ + Δ) rounds, deterministic.
//
// Outputs are lcl.MatchLabel (the matched port, or -1), verified by the
// maximal-matching LCL checker.
package matching

import (
	"fmt"

	"locality/internal/lcl"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// RandOptions configures the randomized proposal machine.
type RandOptions struct {
	// MaxPhases caps the proposal phases; 0 means 8·ceil(log2 n)+16.
	MaxPhases int
}

type randMsg struct {
	Matched  bool
	Proposal bool // set only on the proposed port in sub-step A
	Accept   bool // set only on the accepted port in sub-step B
}

type randMatch struct {
	opt        RandOptions
	env        sim.Env
	matched    int // port, -1 if unmatched
	nbrMatched []bool
	proposedTo int // port we proposed to this phase, -1
	phases     int
}

var _ sim.Machine = (*randMatch)(nil)

// NewRandFactory returns the randomized maximal matching machine.
func NewRandFactory(opt RandOptions) sim.Factory {
	return func() sim.Machine { return &randMatch{opt: opt} }
}

func (m *randMatch) Init(env sim.Env) {
	if env.Rand == nil {
		panic("matching: randomized machine requires Config.Randomized")
	}
	m.env = env
	m.matched = -1
	m.proposedTo = -1
	m.nbrMatched = make([]bool, env.Degree)
	m.phases = m.opt.MaxPhases
	if m.phases == 0 {
		m.phases = 8*mathx.CeilLog2(env.N+1) + 16
	}
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
		return m.broadcast(randMsg{Matched: true}), true
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
		send := m.broadcast(randMsg{})
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
					send := m.broadcast(randMsg{Matched: true})
					send[p] = randMsg{Matched: true, Accept: true}
					return send, true
				}
			}
		}
		return m.broadcast(randMsg{}), false
	default:
		// Step 1: hello.
		return m.broadcast(randMsg{}), false
	}
}

func (m *randMatch) broadcast(msg randMsg) []sim.Message {
	send := make([]sim.Message, m.env.Degree)
	for p := range send {
		send[p] = msg
	}
	return send
}

func (m *randMatch) Output() any { return lcl.MatchLabel(m.matched) }

// DetOptions configures the deterministic line-graph machine.
type DetOptions struct {
	// IDSpace bounds the vertex IDs (1..IDSpace); 0 means Env.N.
	IDSpace int
	// Delta bounds the maximum degree; 0 means Env.MaxDeg.
	Delta int
}

// detPlan is the schedule every deterministic machine of a run shares
// read-only.
type detPlan struct {
	opt    DetOptions // resolved against the graph
	sched  []linial.Family
	fp     int
	kw     linial.KWPlan
	kwAt   [][2]int
	target int // 2Δ-1
}

func newDetPlan(opt DetOptions, n, maxDeg int) detPlan {
	if opt.IDSpace == 0 {
		opt.IDSpace = n
	}
	if opt.Delta == 0 {
		opt.Delta = maxDeg
	}
	deltaL := mathx.Max(1, 2*opt.Delta-2) // line graph degree bound
	k0 := opt.IDSpace * opt.IDSpace
	p := detPlan{
		opt:    opt,
		sched:  linial.Schedule(k0, deltaL),
		target: mathx.Max(1, 2*opt.Delta-1),
	}
	p.fp = linial.FixedPointOf(k0, p.sched)
	if p.fp > p.target {
		p.kw = linial.NewKWPlan(p.fp, p.target)
		for i := range p.kw.Palettes {
			for j := 0; j < p.kw.PassLen(i); j++ {
				p.kwAt = append(p.kwAt, [2]int{i, j})
			}
		}
	}
	return p
}

// detMsg is the per-port message of the deterministic machine.
type detMsg struct {
	ID         uint64
	EdgeColors []int // sender's incident edge colors in its port order
	ThisPort   int   // sender's port index for this edge
	Matched    bool
}

type detMatch struct {
	plans   *sim.PlanMemo[detPlan]
	plan    *detPlan
	env     sim.Env
	nbrID   []uint64
	colors  []int // current color of the edge at each port (0-based)
	matched int
	nbrFree []bool
}

var _ sim.Machine = (*detMatch)(nil)

// NewDetFactory returns the deterministic maximal matching machine.
func NewDetFactory(opt DetOptions) sim.Factory {
	plans := sim.NewPlanMemo(func(n, maxDeg int) detPlan { return newDetPlan(opt, n, maxDeg) })
	return func() sim.Machine { return &detMatch{plans: plans} }
}

func (m *detMatch) Init(env sim.Env) {
	if !env.HasID {
		panic("matching: deterministic machine requires IDs")
	}
	m.env = env
	m.plan = m.plans.Get(env)
	m.nbrID = make([]uint64, env.Degree)
	m.colors = make([]int, env.Degree)
	m.matched = -1
	m.nbrFree = make([]bool, env.Degree)
	for p := range m.nbrFree {
		m.nbrFree[p] = true
	}
}

// edgeColor0 derives the initial line-graph color of an edge from its
// endpoint IDs: the rank of the ordered pair in the IDSpace² palette.
func (m *detMatch) edgeColor0(a, b uint64) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return int(lo-1)*m.plan.opt.IDSpace + int(hi-1)
}

// Step schedule (S = len(sched), K = len(kwAt), T = target):
//
//	step 1:            broadcast ID
//	step 2:            derive initial edge colors; broadcast color vectors
//	steps 3..2+S:      Linial reduction on the line graph
//	steps 3+S..2+S+K:  Kuhn–Wattenhofer passes
//	then T steps:      class sweep; class c matches free-free edges
func (m *detMatch) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	s, k := len(m.plan.sched), len(m.plan.kwAt)
	switch {
	case step == 1:
		return m.sendVectors(true), false
	case step == 2:
		for p, msg := range recv {
			dm := msg.(detMsg)
			m.nbrID[p] = dm.ID
			m.colors[p] = m.edgeColor0(m.env.ID, dm.ID)
		}
		return m.sendVectors(false), false
	case step <= 2+s:
		fam := m.plan.sched[step-3]
		m.applyReduction(recv, func(own int, nbrs []int) int {
			return fam.Reduce(own, nbrs)
		})
		return m.sendVectors(false), false
	case step <= 2+s+k:
		pass, sub := m.plan.kwAt[step-3-s][0], m.plan.kwAt[step-3-s][1]
		m.applyReduction(recv, func(own int, nbrs []int) int {
			return m.plan.kw.Recolor(pass, sub, own, nbrs)
		})
		return m.sendVectors(false), false
	default:
		class := step - 2 - s - k // 1-based sweep class
		m.absorbSweep(recv)
		if m.matched < 0 && class >= 1 && class <= m.plan.target {
			for p := 0; p < m.env.Degree; p++ {
				// colors are 0-based: class c handles color c-1.
				if m.colors[p] == class-1 && m.nbrFree[p] {
					m.matched = p
					break
				}
			}
		}
		if class > m.plan.target {
			return nil, true
		}
		return m.sendVectors(false), false
	}
}

// applyReduction recomputes every incident edge's color from both
// endpoints' constraint sets; both endpoints compute identical results.
func (m *detMatch) applyReduction(recv []sim.Message, reduce func(own int, nbrs []int) int) {
	newColors := make([]int, m.env.Degree)
	for p := range newColors {
		msg := recv[p]
		dm, ok := msg.(detMsg)
		if !ok {
			panic(fmt.Sprintf("matching: expected detMsg on port %d, got %T", p, msg))
		}
		own := m.colors[p]
		nbrs := make([]int, 0, 2*m.plan.opt.Delta)
		for q, c := range m.colors {
			if q != p {
				nbrs = append(nbrs, c)
			}
		}
		for q, c := range dm.EdgeColors {
			if q != dm.ThisPort {
				nbrs = append(nbrs, c)
			}
		}
		newColors[p] = reduce(own, nbrs)
	}
	m.colors = newColors
}

func (m *detMatch) absorbSweep(recv []sim.Message) {
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		dm, ok := msg.(detMsg)
		if !ok {
			panic(fmt.Sprintf("matching: unexpected sweep message %T", msg))
		}
		if dm.Matched {
			m.nbrFree[p] = false
		}
	}
}

// sendVectors broadcasts the per-port color vectors (plus ID on request).
func (m *detMatch) sendVectors(withID bool) []sim.Message {
	send := make([]sim.Message, m.env.Degree)
	for p := range send {
		msg := detMsg{ThisPort: p, Matched: m.matched >= 0}
		if withID {
			msg.ID = m.env.ID
		}
		msg.EdgeColors = append([]int(nil), m.colors...)
		send[p] = msg
	}
	return send
}

func (m *detMatch) Output() any { return lcl.MatchLabel(m.matched) }

// DetRounds predicts the deterministic machine's round count.
func DetRounds(opt DetOptions, n, maxDeg int) int {
	p := newDetPlan(opt, n, maxDeg)
	return 2 + len(p.sched) + len(p.kwAt) + p.target
}
