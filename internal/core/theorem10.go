package core

import (
	"fmt"
	"math"
	"math/bits"

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
	opt      T10Options // resolved against n
	reserve  int        // √Δ reserved colors
	cs       []float64
	iters    int        // t = len(cs)
	bidWords int        // ⌈k/64⌉ words per color bitset, k = Δ-√Δ+1 indices
	p1End    int        // last phase-1 step
	markBad  int        // step marking the uncolored as bad
	p2       phase2Plan // Phase 2 on the bad components, from markBad on
	total    int
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
	p.bidWords = (opt.Delta - p.reserve + 64) / 64
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

// t10Status is the phase-1 broadcast. It is comparable, so the machine
// re-sends an unchanged one through sim.Box: the bid is named, not held,
// as the sender's bid log and the iteration that drew it. That part of the
// log is written once, before the first status naming it is sent, and
// never again, so a sent status never changes.
type t10Status struct {
	Participating bool
	Color         int
	log           *bidLog // the sender's bid log; nil before its first bid
	iter          int     // the iteration whose bid the status names
}

// t10Hello is the status every vertex sends at step 1, before its first
// bid, boxed once for all of them.
var t10Hello sim.Message = t10Status{Participating: true}

// bidWord returns word i of the bid st names, or 0 when it names none.
func (st *t10Status) bidWord(i int) uint64 {
	if st.log == nil {
		return 0
	}
	return st.log.bits[(st.iter-1)*st.log.words+i]
}

// bidLog is a vertex's record of its bids: the bid S_v of iteration i is
// the bitset bits[(i-1)·words : i·words] over the colors, bit c of word
// c/64 for color c.
type bidLog struct {
	words int
	bits  []uint64
}

// bid returns iteration iter's bid.
func (l *bidLog) bid(iter int) []uint64 {
	return l.bits[(iter-1)*l.words : iter*l.words : iter*l.words]
}

// t10 is one vertex of ColorBidding. It broadcasts its status at every
// Phase 1 step while it participates, and once more at the step it becomes
// final (coloured or bad); from then on it rests, absorbing nothing and
// sending nothing. Its neighbours lose nothing by that: resolveStep and
// filter treat a silent port like a non-participating one, and the palette
// update reads the colour each neighbour sent last. A resting vertex
// sleeps in the sim.Sleeper discard mode. A bad vertex wakes at markBad to
// start Phase 2, through which it sleeps with its forest machine in mail
// mode; a coloured one wakes only to halt. Phase 2's first inner step, the
// forest's hello, reads no mail, and every vertex halts one step after
// the harvest, so neither markBad nor the harvest step sends.
type t10 struct {
	plans *sim.PlanMemo[t10Plan]
	plan  *t10Plan
	env   sim.Env

	id    uint64
	color int
	phase int
	bad   bool
	// palette is Ψ, a bitset over the colors 1..Δ-√Δ (bit c of word c/64;
	// bit 0 is never set), and shares its backing with log, both
	// allocated at Init.
	palette  []uint64
	paletteN int // |Ψ|
	// log holds every bid the vertex drew. Neighbors read a bid through
	// the status naming it, so the header is never reassigned after Init
	// and a bid is never written after the step that drew it.
	log     bidLog
	bidIter int // the iteration of the vertex's latest bid; 0 before its first

	phase2 // the embedded Phase 2 forest coloring
	failed bool
	// resting is set at the Phase 1 step that broadcasts the final status
	// and cleared at the wake step.
	resting bool

	// nbr keeps the status each port delivered last. A port whose status
	// arrived in this step's inbox is fresh; a silent port reads like a
	// non-participating neighbor.
	nbr  []t10Status
	box  sim.Box[t10Status] // the last status broadcast, boxed
	send []sim.Message      // reused status broadcast
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
	// Colors 1..Δ-√Δ; bit 0 is unused.
	k, words := m.plan.opt.Delta-m.plan.reserve+1, m.plan.bidWords
	sets := make([]uint64, (1+m.plan.iters)*words)
	m.palette = sets[:words:words]
	for i := range m.palette {
		m.palette[i] = ^uint64(0)
	}
	m.palette[0] &^= 1
	if r := k % 64; r != 0 {
		m.palette[words-1] &= 1<<r - 1
	}
	m.paletteN = k - 1
	m.log = bidLog{words: words, bits: sets[words:]}
	m.nbr = make([]t10Status, env.Degree)
}

func (m *t10) statusNow() t10Status {
	st := t10Status{Participating: m.color == 0 && !m.bad, Color: m.color}
	if m.bidIter > 0 {
		st.log, st.iter = &m.log, m.bidIter
	}
	return st
}

func (m *t10) absorb(recv []sim.Message) {
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		st, ok := msg.(t10Status)
		if !ok {
			panic(fmt.Sprintf("core: unexpected message %T", msg))
		}
		m.nbr[p] = st
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
// step in discard mode, and a Phase 2 vertex sleeps as phase2 does.
func (m *t10) SleepUntil() (int, bool) {
	if m.resting {
		return m.wake(), false
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
		return sim.BroadcastInto(&m.send, m.env.Degree, t10Hello), false
	case step <= pl.p1End:
		local := step - 1 // 1-based within phase 1
		iter := (local + 1) / 2
		if local%2 == 1 {
			m.bidStep(iter, recv)
		} else {
			m.resolveStep(recv)
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
	msg, _ := m.box.Of(m.statusNow())
	return sim.BroadcastInto(&m.send, m.env.Degree, msg), false
}

// bidStep is sub-step A of iteration iter: apply the previous iteration's
// filtering, refresh the palette, then draw the bid S_v into the log.
func (m *t10) bidStep(iter int, recv []sim.Message) {
	m.updatePaletteAndNeighbors()
	if iter >= 2 {
		m.filter(iter-1, recv)
	}
	if m.color != 0 || m.bad {
		return
	}
	if m.paletteN == 0 {
		m.bad = true
		return
	}
	// Ψ is scanned in ascending color order, so the RNG draws are the same
	// on every engine.
	bid := m.log.bid(iter)
	m.bidIter = iter
	if iter == 1 {
		k := m.env.Rand.Intn(m.paletteN) // draw the k-th color of Ψ
		for wi, word := range m.palette {
			if n := bits.OnesCount64(word); k >= n {
				k -= n
				continue
			}
			for ; k > 0; k-- {
				word &= word - 1
			}
			bid[wi] = word & -word
			return
		}
		panic("core: |Ψ| disagrees with the palette (internal bug)")
	}
	prob := m.plan.cs[iter-1] / float64(m.paletteN)
	for wi, word := range m.palette {
		for ; word != 0; word &= word - 1 {
			if m.env.Rand.Bernoulli(prob) {
				bid[wi] |= word & -word
			}
		}
	}
}

// resolveStep is sub-step B: color the vertex with the lowest color of
// its bid that no fresh participating neighbor bid.
func (m *t10) resolveStep(recv []sim.Message) {
	if m.color != 0 || m.bad || m.bidIter == 0 {
		return
	}
	for wi, free := range m.log.bid(m.bidIter) {
		for p := range m.nbr {
			if recv[p] != nil && m.nbr[p].Participating {
				free &^= m.nbr[p].bidWord(wi)
			}
		}
		if free != 0 {
			m.color = wi<<6 | bits.TrailingZeros64(free)
			m.phase = 1
			return
		}
	}
}

// updatePaletteAndNeighbors removes the colors permanently taken by
// neighbors from Ψ.
func (m *t10) updatePaletteAndNeighbors() {
	for p := range m.nbr {
		c := m.nbr[p].Color // 0 for a port never heard
		if c <= 0 || c >= len(m.palette)<<6 {
			continue
		}
		if bit := uint64(1) << (c & 63); m.palette[c>>6]&bit != 0 {
			m.palette[c>>6] &^= bit
			m.paletteN--
		}
	}
}

// filter applies Filtering(i) using the post-iteration-i state, read from
// this step's inbox recv.
func (m *t10) filter(i int, recv []sim.Message) {
	if m.color != 0 || m.bad {
		return
	}
	// N'_{i+1}: participating uncolored neighbors after iteration i.
	survivors := 0
	for p := range m.nbr {
		if recv[p] != nil && m.nbr[p].Participating {
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
