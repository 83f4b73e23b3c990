// Package forest implements the deterministic q-coloring of trees and
// forests that plays the role of Theorem 9 (Barenboim–Elkin [27]) in this
// library: for q >= 3, color a forest with q colors in O(log_A n · A +
// log* n) rounds, where A = min(q-1, 8) is the peeling threshold.
//
// The algorithm follows the H-partition framework of [27]:
//
//  1. Peel: repeatedly remove all vertices of remaining degree <= A. In a
//     forest each round removes at least a (1 - 2/(A+1)) fraction, so
//     L = O(log n / log((A+1)/2)) rounds suffice; layer(v) is the removal
//     round. Orient every edge from the earlier-peeled endpoint to the
//     later-peeled one (ties by ID): every vertex gets at most A parents
//     and every edge is oriented.
//  2. Arb-Linial: run the Linial steps of a linial.Reduction of the ID
//     coloring with degree bound A, where each vertex's new color avoids
//     only its parents' point sets. Because every edge is a parent-child
//     pair, the invariant "differ from all parents" is a proper coloring of
//     the whole forest; the palette drops to the fixed point fp = O(A²) in
//     O(log* n) rounds, independent of Δ.
//  3. H-sweep: the same Reduction's class sweep to A+1 colors, run on the
//     intra-layer edges: classes fp-1 down to A+1 are recolored one per
//     round, each vertex avoiding its same-layer neighbors, of which it has
//     at most A (they were unpeeled when it peeled). The result is an
//     (A+1)-coloring proper within every layer (max(0, fp-A-1) rounds, run
//     once for all layers simultaneously since layers are vertex-disjoint).
//  4. Final sweep: process (layer, h-color class) pairs from the top layer
//     down; a vertex choosing its final color is constrained only by
//     neighbors in its own or higher layers — at most A of them, all
//     already final — so a palette of q >= A+1 always has a free color.
//     L·(A+1) rounds.
//
// Differences from the paper's Theorem 9 are documented in DESIGN.md: the
// exact Barenboim–Elkin bound is O(log_q n + log* n) with constants
// independent of q; ours trades a capped peeling threshold (A <= 8) for a
// simple, mechanically verifiable implementation. For every q used by the
// paper's algorithms (q = 3, q = √Δ, q = Δ with moderate Δ) the measured
// growth in n keeps the O(log n) vs O(log log n) separation shapes intact.
//
// The machine takes an externally supplied component size bound and ID
// space, which is how Theorems 10 and 11 invoke it on the poly(log n)-size
// shattered components under random-bit identifiers: they build a machine
// only at the component vertices, relabel its Env.ID, and shift its colors
// into their own palette (see core's phase2). A neighbor whose port stays
// silent from the first step on is read as "not in the forest".
package forest

import (
	"fmt"

	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// Options configures the forest coloring machine.
type Options struct {
	// Q is the palette size; the output colors are 1..Q. Q must be at
	// least 3.
	Q int
	// A is the peeling threshold (1 < A <= Q-1). Zero selects
	// min(Q-1, 8); see the package comment.
	A int
	// SizeBound is the bound on the number of vertices of any connected
	// component of the forest; it fixes the peeling budget. Zero means
	// "use Env.N".
	SizeBound int
	// IDSpace bounds the identifiers: Env.ID lies in 1..IDSpace. Zero
	// means "use Env.N" (the DetLOCAL convention).
	IDSpace int
}

// Resolve returns a copy of o with zero values filled in against the graph
// size n, exactly as the machine does at Init; callers use it to compute
// plans (and thus round budgets) outside a run.
func (o Options) Resolve(n int) Options {
	if o.A == 0 {
		o.A = mathx.Min(o.Q-1, 8)
	}
	if o.SizeBound == 0 {
		o.SizeBound = n
	}
	if o.IDSpace == 0 {
		o.IDSpace = n
	}
	return o
}

// validate panics on caller errors (not data errors).
func (o Options) validate() {
	if o.Q < 3 {
		panic(fmt.Sprintf("forest: Q=%d < 3", o.Q))
	}
	if o.A != 0 && (o.A < 2 || o.A > o.Q-1) {
		panic(fmt.Sprintf("forest: A=%d outside [2, Q-1=%d]", o.A, o.Q-1))
	}
}

// PeelRounds returns the peeling budget for component size bound n and
// threshold a: the least L with n·(2/(a+1))^L < 1, plus one slack round.
func PeelRounds(n, a int) int {
	if n <= 1 {
		return 1
	}
	l := 0
	remaining := float64(n)
	for remaining >= 1 {
		remaining *= 2.0 / float64(a+1)
		l++
	}
	return l + 1
}

// Plan is the precomputed round schedule of a run. Every machine of a run
// reads the same *Plan and none writes it; it depends on the resolved
// options only.
type Plan struct {
	Opt  Options
	Peel int // peeling rounds P
	// red is the arb-Linial schedule followed by the H-sweep from its
	// fixed point to A+1 colors.
	red   linial.Reduction
	Final int // final sweep length: Peel*(A+1)
}

// NewPlan computes the schedule for resolved options.
func NewPlan(opt Options) Plan {
	peel := PeelRounds(opt.SizeBound, opt.A)
	return Plan{
		Opt:   opt,
		Peel:  peel,
		red:   linial.NewReduction(opt.IDSpace, opt.A, opt.A+1, false),
		Final: peel * (opt.A + 1),
	}
}

// Rounds returns the total communication rounds the machine uses:
// 1 (hello) + Peel + 1 (layer settle / first color broadcast) +
// the reduction's steps (arb-Linial, then the H-sweep) + Final.
func (p Plan) Rounds() int {
	return 1 + p.Peel + 1 + p.red.Steps() + p.Final
}

// linialStep reports whether step is one of the reduction's Linial steps.
func (p *Plan) linialStep(step int) bool {
	i := step - p.Peel - 3
	return i >= 0 && i < p.red.LinialSteps()
}

// sweepStep returns the step of the H-sweep that recolors class c, one of
// the classes above A: the sweep runs from the fixed point's top class
// down, one class per step, after the Linial steps.
func (p *Plan) sweepStep(c int) int {
	return p.Peel + 3 + p.red.LinialSteps() + p.red.FixedPoint() - 1 - c
}

// NewFactory returns the forest coloring machine factory.
// Output: final color in 1..Q, or 0 when the vertex failed.
func NewFactory(opt Options) sim.Factory {
	opt.validate()
	plans := sim.NewPlanMemo(func(n, _ int) Plan { return NewPlan(opt.Resolve(n)) })
	return func() sim.Machine { return &machine{plans: plans} }
}

// NewMachine returns one forest coloring machine that runs on a plan its
// caller already holds; Theorems 10 and 11 embed it this way as their
// Phase 2. The machine is a sim.Sleeper in mail mode, so an embedding
// caller can sleep with it.
func NewMachine(plan *Plan) sim.Machine {
	return &machine{plan: plan}
}

// status is the single message type: a vertex broadcasts its full
// status whenever it changed, and resends an unchanged one only before a
// Linial step (see Step). A receiver keeps the last status each port
// delivered, so between changes its copy is current. The LOCAL model does
// not meter bandwidth, and a single self-describing message keeps the phase
// logic simple.
type status struct {
	ID     uint64
	Peeled bool
	Layer  int
	HColor int // current arb-Linial/H-sweep color (0-based), -1 before start
	Final  int // final color (1-based), 0 if not yet assigned
}

type machine struct {
	plans *sim.PlanMemo[Plan]
	plan  *Plan
	env   sim.Env

	peeled bool
	layer  int

	// The per-port flags and used share one backing, allocated at Init.
	nbr       []status // latest status per port (zero value until heard)
	heard     []bool   // whether port p has ever delivered a status
	parentOf  []bool   // valid after layers settle
	sameLayer []bool
	used      []bool // reused color set of the H-sweep and the final sweep
	nbrColors []int  // reused neighbor colors, one per port at most

	hcolor int
	final  int
	wake   int             // the next slot, from the last Step (see slotAfter)
	box    sim.Box[status] // the last status broadcast, boxed
	send   []sim.Message   // reused status broadcast
	// failed is set when a *probabilistic* precondition breaks (a component
	// exceeds SizeBound so peeling does not finish, or externally supplied
	// IDs collide between neighbors). The vertex then halts with output 0,
	// which the caller's verifier reports as an algorithm failure — the
	// "stops and fails" behaviour Theorem 11's Phase 2 prescribes.
	// Internal invariant violations still panic.
	failed bool
}

var (
	_ sim.Machine = (*machine)(nil)
	_ sim.Sleeper = (*machine)(nil)
)

func (m *machine) Init(env sim.Env) {
	m.env = env
	if m.plan == nil {
		m.plan = m.plans.Get(env)
	}
	if !env.HasID {
		panic("forest: run without IDs (a RandLOCAL caller relabels Env.ID)")
	}
	if env.ID < 1 || env.ID > uint64(m.plan.Opt.IDSpace) {
		panic(fmt.Sprintf("forest: ID %d outside 1..%d", env.ID, m.plan.Opt.IDSpace))
	}
	d, q := env.Degree, m.plan.Opt.Q
	flags := make([]bool, 3*d+q)
	m.heard = flags[:d:d]
	m.parentOf, m.sameLayer = flags[d:2*d:2*d], flags[2*d:3*d:3*d]
	m.used = flags[3*d:]
	m.nbr = make([]status, d)
	m.nbrColors = make([]int, 0, d)
	m.hcolor = -1
}

// Step phases (P = plan.Peel, R = plan.red.Steps(), F = plan.Final):
//
//	step 1:               hello broadcast
//	steps 2..P+1:         peeling round r = step-1
//	step P+2:             layers settled; derive parents; hcolor = ID-1
//	steps P+3..P+2+R:     reduction step step-(P+3): arb-Linial, then the
//	                      H-sweep (classes FP-1 .. A+1 descending)
//	steps P+3+R..P+2+R+F: final sweep over (layer desc, h-class asc)
//	step P+3+R+F:         halt
//
// Between its slots (see slotAfter) a Step whose inbox is all nil changes
// nothing and sends nothing, so the machine sleeps in mail mode: the
// sequential engine steps it at its next slot or at the step after mail
// reaches it, whichever comes first.
func (m *machine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if m.failed {
		return nil, true
	}
	// The hello step reads no inbox: it is empty in a run of the forest's
	// own, and holds the caller's mail when Phase 2 embeds the machine.
	if step > 1 {
		m.absorb(recv)
	}
	p, r := m.plan.Peel, m.plan.red.Steps()
	switch {
	case step == 1:
		// Nothing to do but say hello (the broadcast below).
	case step <= p+1:
		m.peelStep(step - 1)
	case step == p+2:
		m.settleLayers()
	case step <= p+2+r:
		m.reduceStep(step-p-3, recv)
	case step <= p+2+r+m.plan.Final:
		m.finalStep(step - p - 2 - r)
	default:
		if m.final == 0 {
			panic("forest: schedule exhausted without a final color (internal bug)")
		}
		return nil, true
	}
	if m.failed {
		return nil, true
	}
	m.wake = m.slotAfter(step)
	// Peel, settle, H-sweep and final-sweep steps read the statuses each
	// port delivered last, so an unchanged status need not be sent again.
	// A Linial step also reads which ports spoke (a silent parent has
	// failed), so before one every live vertex sends. A change a
	// neighbour sends once is not lost while the vertex sleeps: in mail
	// mode that mail wakes it.
	msg, changed := m.box.Of(m.statusNow())
	if !changed && !m.plan.linialStep(step+1) {
		return nil, false
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, msg), false
}

// slotAfter returns the first step after step at which the vertex acts
// without mail; at every step in between, a Step with an all-nil inbox
// is a no-op. The slots are step 2, the first peel round, where a vertex
// with no forest neighbor peels on silence; the settle step P+2 and every
// step through the last Linial step, where every vertex sends and reads
// which parents spoke; its H-sweep class step while its color is above A;
// its final-sweep slot; and the halt step. A later peel round changes
// nothing unless a neighbor's peeling arrives, and the sweeps read only
// statuses that arrived as mail.
func (m *machine) slotAfter(step int) int {
	pl := m.plan
	p, a := pl.Peel, pl.Opt.A
	switch {
	case step == 1:
		return 2
	case step < p+2:
		return p + 2
	case step < p+2+pl.red.LinialSteps():
		return step + 1
	case m.hcolor > a:
		return pl.sweepStep(m.hcolor)
	case m.final == 0:
		return p + 2 + pl.red.Steps() + (p-m.layer)*(a+1) + m.hcolor + 1
	}
	return p + 3 + pl.red.Steps() + pl.Final
}

// SleepUntil implements sim.Sleeper in mail mode: the vertex sleeps to its
// next slot, and mail wakes it earlier.
func (m *machine) SleepUntil() (int, bool) { return m.wake, true }

func (m *machine) statusNow() status {
	return status{ID: m.env.ID, Peeled: m.peeled, Layer: m.layer, HColor: m.hcolor, Final: m.final}
}

// absorb keeps the latest status each port delivered. An all-nil inbox
// changes nothing, which is what lets the machine sleep between slots.
func (m *machine) absorb(recv []sim.Message) {
	for p, msg := range recv {
		if msg == nil {
			continue
		}
		st, ok := msg.(status)
		if !ok {
			panic(fmt.Sprintf("forest: unexpected message %T", msg))
		}
		m.nbr[p] = st
		m.heard[p] = true
	}
}

// peelStep runs one synchronous peeling round: vertices whose unpeeled
// degree is at most A remove themselves.
func (m *machine) peelStep(round int) {
	if m.peeled {
		return
	}
	unpeeled := 0
	for p := range m.nbr {
		if m.heard[p] && !m.nbr[p].Peeled {
			unpeeled++
		}
	}
	if unpeeled <= m.plan.Opt.A {
		m.peeled = true
		m.layer = round
	}
}

// settleLayers freezes the orientation: parents are forest neighbors peeled
// strictly later, or in the same layer with a larger ID. It also seeds the
// arb-Linial color.
func (m *machine) settleLayers() {
	if !m.peeled {
		// Component larger than SizeBound (or not a forest): probabilistic
		// precondition failure — stop and fail.
		m.failed = true
		return
	}
	parents := 0
	for p := range m.nbr {
		if !m.heard[p] {
			continue // not in the forest: its port stayed silent
		}
		st := m.nbr[p]
		if !st.Peeled {
			m.failed = true
			return
		}
		if st.ID == m.env.ID {
			// Externally supplied IDs collided between neighbors.
			m.failed = true
			return
		}
		if st.Layer > m.layer || (st.Layer == m.layer && st.ID > m.env.ID) {
			m.parentOf[p] = true
			parents++
		}
		if st.Layer == m.layer {
			m.sameLayer[p] = true
		}
	}
	if parents > m.plan.Opt.A {
		panic(fmt.Sprintf("forest: %d parents exceed threshold A=%d (internal bug)", parents, m.plan.Opt.A))
	}
	m.hcolor = int(m.env.ID) - 1
}

// reduceStep applies reduction step i (0-based): a Linial step reduces
// against the parents' colors only, an H-sweep step recolors one class
// against the colors of the same-layer neighbors. recv is the step's
// inbox: every live vertex sends before a Linial step, so a parent whose
// port is silent in it has failed.
func (m *machine) reduceStep(i int, recv []sim.Message) {
	if class := m.plan.red.SweepClass(i); class >= 0 && m.hcolor != class {
		return // not the class this sweep step recolors
	}
	nbrs := m.nbrColors[:0]
	if i < m.plan.red.LinialSteps() {
		for p := range m.nbr {
			if m.parentOf[p] {
				if recv[p] == nil || m.nbr[p].HColor == m.hcolor {
					// Parent halted (it failed) or an ID collision at distance
					// two made colors coincide: stop and fail.
					m.failed = true
					return
				}
				nbrs = append(nbrs, m.nbr[p].HColor)
			}
		}
	} else {
		for p := range m.nbr {
			if m.sameLayer[p] {
				nbrs = append(nbrs, m.nbr[p].HColor)
			}
		}
	}
	m.nbrColors = nbrs
	m.hcolor = m.plan.red.Apply(i, m.hcolor, nbrs, &m.used)
}

// finalStep assigns final colors; sub-step k (1-based) serves layer
// Peel - (k-1)/(A+1) and h-class (k-1) mod (A+1).
func (m *machine) finalStep(k int) {
	if m.final != 0 {
		return
	}
	layer := m.plan.Peel - (k-1)/(m.plan.Opt.A+1)
	class := (k - 1) % (m.plan.Opt.A + 1)
	if m.layer != layer || m.hcolor != class {
		return
	}
	nbrs := m.nbrColors[:0]
	for p := range m.nbr {
		if f := m.nbr[p].Final; m.heard[p] && f != 0 {
			nbrs = append(nbrs, f)
		}
	}
	m.nbrColors = nbrs
	c, ok := linial.FreeColor(nbrs, 1, m.plan.Opt.Q, &m.used)
	if !ok {
		panic("forest: final sweep found no free color (constraints exceed Q-1?)")
	}
	m.final = c
}

func (m *machine) Output() any { return m.final }
