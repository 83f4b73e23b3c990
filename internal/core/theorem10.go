package core

import (
	"fmt"
	"math"

	"locality/internal/sim"
)

// T10Options configures the Theorem 10 (ColorBidding) machine.
type T10Options struct {
	// Delta is the palette size and degree bound; the analysis wants it
	// large, and the machine requires Delta >= 9 so the reserved palette
	// √Δ >= 3 can drive the Phase 2 forest coloring.
	Delta int
	// PaletteSlack is the Filtering(1) threshold divisor: a vertex is bad
	// after round 1 if |Ψ₂|-|N'₂| < Δ/PaletteSlack. The paper uses 200 in
	// the analysis; the default 8 is the practical choice documented in
	// DESIGN.md.
	PaletteSlack int
}

// T10Result is the per-vertex output of the Theorem 10 machine.
type T10Result struct {
	// Color is the final color in 1..Delta, or 0 on failure.
	Color int
	// Phase is 1 (ColorBidding) or 2 (shattered finish); 0 on failure.
	Phase int
	// Bad reports whether the vertex was marked bad (E3 diagnostics).
	Bad bool
}

// CSequence returns the paper's c_i growth sequence with the practical
// growth rule c_{i+1} = min(√Δ, c_i·e^{c_i/6}) (the paper's e^200 divisor
// makes t astronomically large; DESIGN.md documents the substitution —
// the sequence still grows as a tower, so t = O(log* Δ)).
func CSequence(delta int) []float64 {
	limit := math.Sqrt(float64(delta))
	cs := []float64{1}
	for cs[len(cs)-1] < limit {
		c := cs[len(cs)-1]
		next := math.Min(limit, c*math.Exp(c/6))
		cs = append(cs, next)
		if len(cs) > 60 {
			panic("core: c-sequence failed to converge (internal bug)")
		}
	}
	return cs
}

// t10Plan is the round schedule every machine of a run shares read-only.
type t10Plan struct {
	opt     T10Options // resolved against n
	reserve int        // √Δ reserved colors
	cs      []float64
	iters   int        // t = len(cs)
	p1End   int        // last phase-1 step
	markBad int        // step marking the uncolored as bad
	p2      phase2Plan // Phase 2 on the bad components, from markBad on
	total   int
}

// newT10Plan lays out the run. Phase 2 colors bad components of at most
// max(32, 8·ceil(log2 n)) vertices (the paper proves Δ⁴·log n; measured
// components are far smaller, see experiment E3).
func newT10Plan(n int, opt T10Options) t10Plan {
	if opt.PaletteSlack == 0 {
		opt.PaletteSlack = 8
	}
	p := t10Plan{opt: opt}
	p.reserve = int(math.Ceil(math.Sqrt(float64(opt.Delta))))
	p.cs = CSequence(opt.Delta)
	p.iters = len(p.cs)
	// Step layout: step 1 hello; iterations i = 1..t occupy steps 2i, 2i+1.
	p.p1End = 1 + 2*p.iters
	p.markBad = p.p1End + 1
	p.p2 = newPhase2Plan(n, p.reserve, phase2SizeBound(n, 0), p.markBad)
	p.total = p.p2.end + 2 // harvest step, then halt
	return p
}

// T10Rounds returns the total communication rounds of the Theorem 10
// machine for the given graph size.
func T10Rounds(n int, opt T10Options) int {
	return newT10Plan(n, opt).total - 1
}

// T10Phase2Rounds returns the round count of the Phase 2 forest plan the
// Theorem 10 machine runs on the shattered components of an n-vertex graph.
func T10Phase2Rounds(n int, opt T10Options) int {
	return newT10Plan(n, opt).p2.forest.Rounds()
}

// t10Status is the phase-1 broadcast.
type t10Status struct {
	Participating bool
	Color         int
	Bid           []int
}

// t10 is one vertex of ColorBidding. It broadcasts its status at every
// Phase 1 step while it participates, and once more at the step it becomes
// final (coloured or bad); from then on it rests, absorbing nothing and
// sending nothing. Its neighbours lose nothing by that: resolveStep and
// filter treat a silent port like a non-participating one, and the palette
// update reads the colour each neighbour sent last. A bad vertex wakes at
// markBad to start Phase 2; a coloured one wakes only to halt. Phase 2's
// first inner step discards the mail of markBad, and every vertex halts
// one step after the harvest, so neither of those steps sends.
type t10 struct {
	plans *sim.PlanMemo[t10Plan]
	plan  *t10Plan
	env   sim.Env

	id       uint64
	color    int
	phase    int
	bad      bool
	palette  []bool // Ψ: palette[c] reports whether color c is still available
	paletteN int    // |Ψ|
	taken    []bool // resolveStep's scratch set of colors bid by neighbors
	// bid is allocated afresh at every bid: neighbors keep the slice in
	// their nbr[p].Bid, so it must never be written after it is sent.
	bid []int

	phase2 // the embedded Phase 2 forest coloring
	failed bool
	// resting is set at the Phase 1 step that broadcasts the final status
	// and cleared at the wake step.
	resting bool

	nbr   []t10Status
	heard []bool // heard, fresh, palette and taken share one backing
	fresh []bool
	sent  sim.Message   // the status sent last; nil before the first
	send  []sim.Message // reused status broadcast
}

var (
	_ sim.Machine = (*t10)(nil)
	_ sim.Sleeper = (*t10)(nil)
)

// NewT10Factory returns the Theorem 10 ColorBidding machine.
func NewT10Factory(opt T10Options) sim.Factory {
	if opt.Delta < 9 {
		panic(fmt.Sprintf("core: Theorem 10 needs Delta >= 9 (√Δ >= 3), got %d", opt.Delta))
	}
	plans := sim.NewPlanMemo(func(n, _ int) t10Plan { return newT10Plan(n, opt) })
	return func() sim.Machine { return &t10{plans: plans} }
}

func (m *t10) Init(env sim.Env) {
	if env.Rand == nil {
		panic("core: Theorem 10 is a RandLOCAL algorithm; Config.Randomized required")
	}
	m.env = env
	m.plan = m.plans.Get(env)
	m.id = randomID(env)
	// Colors 1..Δ-√Δ; index 0 is unused in both sets.
	k, d := m.plan.opt.Delta-m.plan.reserve+1, env.Degree
	flags := make([]bool, 2*k+2*d)
	m.palette, m.taken = flags[:k:k], flags[k:2*k:2*k]
	m.heard, m.fresh = flags[2*k:2*k+d:2*k+d], flags[2*k+d:]
	for c := 1; c < k; c++ {
		m.palette[c] = true
	}
	m.paletteN = k - 1
	m.nbr = make([]t10Status, d)
}

func (m *t10) statusNow() t10Status {
	return t10Status{
		Participating: m.color == 0 && !m.bad,
		Color:         m.color,
		Bid:           m.bid,
	}
}

// boxStatus returns statusNow as a Message, boxing it only when it differs
// from the status sent last; otherwise it re-sends that immutable value.
// t10Status holds a slice, so sim.Box cannot compare it: the bid is
// compared by identity, which is enough because a sent bid is never
// written again and every new bid is a new slice.
func (m *t10) boxStatus() sim.Message {
	st := m.statusNow()
	if last, ok := m.sent.(t10Status); !ok || st.Participating != last.Participating ||
		st.Color != last.Color || !sameSlice(st.Bid, last.Bid) {
		m.sent = st
	}
	return m.sent
}

// sameSlice reports whether a and b are the same slice: equal length and,
// when non-empty, the same first element.
func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (m *t10) absorb(recv []sim.Message) {
	for p, msg := range recv {
		m.fresh[p] = false
		if msg == nil {
			continue
		}
		st, ok := msg.(t10Status)
		if !ok {
			panic(fmt.Sprintf("core: unexpected message %T", msg))
		}
		m.nbr[p] = st
		m.heard[p] = true
		m.fresh[p] = true
	}
}

// wake is the step a resting vertex resumes at: markBad for a bad vertex,
// which must start Phase 2, and the halting step for a coloured one.
func (m *t10) wake() int {
	if m.bad {
		return m.plan.markBad
	}
	return m.plan.p2.end + 2
}

// SleepUntil implements sim.Sleeper: a resting vertex sleeps to its wake
// step, and a Phase 2 vertex whose inner machine is done to its harvest.
func (m *t10) SleepUntil() int {
	if m.resting {
		return m.wake()
	}
	return m.phase2.SleepUntil()
}

func (m *t10) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if m.resting {
		if step < m.wake() {
			return nil, false
		}
		m.resting = false
	}
	pl := m.plan
	if pl.p2.owns(step) {
		return m.forestStep(step, recv)
	}
	m.absorb(recv)
	switch {
	case step == 1:
		// Hello.
	case step <= pl.p1End:
		local := step - 1 // 1-based within phase 1
		iter := (local + 1) / 2
		if local%2 == 1 {
			m.bidStep(iter)
		} else {
			m.resolveStep()
		}
	case step == pl.markBad:
		// Only uncoloured vertices get here: Filtering(t) makes every
		// survivor bad.
		m.bad = true
		m.startForest(&pl.p2, m.env, true, m.id)
		return nil, false
	case step == pl.p2.end+1:
		c, ok := m.harvestForest(pl.opt.Delta - pl.reserve)
		if !ok {
			m.failed = true
			return nil, true
		}
		m.color, m.phase = c, 2
		return nil, false
	default:
		return nil, true
	}
	if m.color != 0 || m.bad {
		m.resting = true // this status is final: send it once, then rest
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, m.boxStatus()), false
}

// bidStep is sub-step A of iteration iter: apply the previous iteration's
// filtering, refresh the palette, then draw the bid S_v.
func (m *t10) bidStep(iter int) {
	m.updatePaletteAndNeighbors()
	if iter >= 2 {
		m.filter(iter - 1)
	}
	m.bid = nil
	if m.color != 0 || m.bad {
		return
	}
	if m.paletteN == 0 {
		m.bad = true
		return
	}
	// Ψ is scanned in ascending color order, so the RNG draws are the same
	// on every engine; scanning the palette in place allocates nothing.
	if iter == 1 {
		k := m.env.Rand.Intn(m.paletteN) // draw the k-th color of Ψ
		for c, ok := range m.palette {
			if ok {
				if k == 0 {
					m.bid = []int{c}
					return
				}
				k--
			}
		}
		panic("core: |Ψ| disagrees with the palette (internal bug)")
	}
	prob := m.plan.cs[iter-1] / float64(m.paletteN)
	for c, ok := range m.palette {
		if ok && m.env.Rand.Bernoulli(prob) {
			m.bid = append(m.bid, c)
		}
	}
}

// resolveStep is sub-step B: color the vertex if some bid color is not bid
// by any participating neighbor.
func (m *t10) resolveStep() {
	if m.color != 0 || m.bad || len(m.bid) == 0 {
		return
	}
	for p := range m.nbr {
		if !m.fresh[p] || !m.nbr[p].Participating {
			continue
		}
		for _, c := range m.nbr[p].Bid {
			m.taken[c] = true
		}
	}
	best := 0
	for _, c := range m.bid {
		if !m.taken[c] && (best == 0 || c < best) {
			best = c
		}
	}
	clear(m.taken)
	if best != 0 {
		m.color = best
		m.phase = 1
	}
	m.bid = nil
}

// updatePaletteAndNeighbors removes the colors permanently taken by
// neighbors from Ψ.
func (m *t10) updatePaletteAndNeighbors() {
	for p := range m.nbr {
		if c := m.nbr[p].Color; m.heard[p] && c > 0 && c < len(m.palette) && m.palette[c] {
			m.palette[c] = false
			m.paletteN--
		}
	}
}

// filter applies Filtering(i) using the post-iteration-i state.
func (m *t10) filter(i int) {
	if m.color != 0 || m.bad {
		return
	}
	// N'_{i+1}: participating uncolored neighbors after iteration i.
	survivors := 0
	for p := range m.nbr {
		if m.fresh[p] && m.nbr[p].Participating {
			survivors++
		}
	}
	d := float64(m.plan.opt.Delta)
	if i == 1 {
		if float64(m.paletteN)-float64(survivors) < d/float64(m.plan.opt.PaletteSlack) {
			m.bad = true
		}
		return
	}
	if i+1 <= len(m.plan.cs) {
		if float64(survivors) > d/m.plan.cs[i] {
			// c_{i+1} in the paper's 1-based indexing is cs[i] here.
			m.bad = true
		}
	}
}

func (m *t10) Output() any {
	if m.failed || m.color == 0 {
		return T10Result{Bad: m.bad}
	}
	return T10Result{Color: m.color, Phase: m.phase, Bad: m.bad}
}
