// Package speedup implements the paper's black-box transformations between
// algorithms — the machinery of Theorems 5, 6 and 8:
//
//   - the generic "relabel and re-run" combinator: collect a radius-R
//     view, locally compute a short identifier that is unique within the
//     distance the inner algorithm can see, then run the inner algorithm
//     pretending the graph has 2^ℓ' vertices (Theorems 6/8, where the
//     short IDs come from simulating Linial's coloring on a power graph);
//   - the Theorem 5 construction: a DetLOCAL algorithm becomes RandLOCAL
//     by drawing random b-bit identifiers, compressing them to an
//     O(poly n) palette with one Linial step on the power graph G^{2t+1},
//     and simulating the deterministic algorithm with the compressed IDs —
//     failing only if the random identifiers collide within the horizon
//     (probability < n²/2^b, measured by experiment E5).
//
// The power-graph Linial simulation runs inside collected balls with a
// shrinking exactness zone (values at distance d are trusted for iteration
// i only if d + D·i <= R), so the center's identifier is exactly what a
// real execution on G^D would produce.
package speedup

import (
	"fmt"

	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/sim"
	"locality/internal/view"
)

// Relabeled is the output of a relabeling rule: the identifier and the
// pretended graph size handed to the inner algorithm.
type Relabeled struct {
	ID uint64
	N  int
}

// Options configures the generic relabel-and-re-run combinator.
type Options struct {
	// Radius is the view-collection radius R.
	Radius int
	// NameOf yields the name used to stitch views; nil means Env.ID
	// (DetLOCAL). The Theorem 5 construction draws random names.
	NameOf func(env sim.Env) uint64
	// Relabel computes the new identifier from the collected ball.
	Relabel func(ball *view.Ball, env sim.Env) Relabeled
	// Inner is the algorithm to re-run under the new identifiers.
	Inner sim.Factory
}

type relabelMachine struct {
	opt   Options
	env   sim.Env
	name  uint64
	coll  *view.Collector
	inner sim.Machine
}

var _ sim.Machine = (*relabelMachine)(nil)

// NewFactory returns the combinator machine. Its output is the inner
// machine's output; its round count is Radius + (inner rounds).
func NewFactory(opt Options) sim.Factory {
	if opt.Radius < 1 || opt.Relabel == nil || opt.Inner == nil {
		panic("speedup: Options requires Radius >= 1, Relabel and Inner")
	}
	return func() sim.Machine { return &relabelMachine{opt: opt} }
}

func (m *relabelMachine) Init(env sim.Env) {
	m.env = env
	if m.opt.NameOf != nil {
		m.name = m.opt.NameOf(env)
	} else {
		if !env.HasID {
			panic("speedup: no IDs and no NameOf hook")
		}
		m.name = env.ID
	}
	m.coll = view.NewCollector(m.opt.Radius, m.name, env)
}

func (m *relabelMachine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	collSteps := m.opt.Radius + 1
	if step <= collSteps {
		send, done := m.coll.Step(step, recv)
		if !done {
			return send, false
		}
		// Collection complete: relabel and boot the inner machine. Its
		// first step runs NOW (the collector's final step absorbs but does
		// not send, so the channel is clean and the relabeling is free
		// local computation) — total rounds are exactly Radius + inner.
		rl := m.opt.Relabel(m.coll.Ball(), m.env)
		m.coll = nil // release the known set; no later step reads it
		innerEnv := m.env
		innerEnv.ID = rl.ID
		innerEnv.HasID = true
		innerEnv.N = rl.N
		m.inner = m.opt.Inner()
		m.inner.Init(innerEnv)
		send, idone := m.inner.Step(1, make([]sim.Message, m.env.Degree))
		return send, idone
	}
	send, done := m.inner.Step(step-collSteps+1, recv)
	return send, done
}

func (m *relabelMachine) Output() any {
	if m.inner == nil {
		return nil
	}
	return m.inner.Output()
}

// PowerLinialID simulates Theorem 2 (iterated Linial) on the power graph
// G^d inside a collected ball and returns the center's final color
// (0-based) plus the fixed-point palette size. idSpace bounds the names;
// deltaPow bounds the power-graph degree. Exactness requires the ball
// radius to be at least d·len(Schedule(idSpace, deltaPow)).
func PowerLinialID(b *view.Ball, d, idSpace, deltaPow int) (int, int) {
	red := linial.NewReduction(idSpace, deltaPow, 0, false)
	steps := red.Steps()
	if b.T < d*steps {
		panic(fmt.Sprintf("speedup: ball radius %d < %d needed for %d power-Linial iterations",
			b.T, d*steps, steps))
	}
	n := b.N()
	colors := make([]int, n)
	for u := 0; u < n; u++ {
		colors[u] = int(b.Recs[u].Name) - 1
		if colors[u] < 0 || colors[u] >= idSpace {
			panic(fmt.Sprintf("speedup: name %d outside 1..%d", b.Recs[u].Name, idSpace))
		}
	}
	// Power-graph neighborhoods within the ball.
	powNbrs := powerNeighbors(b, d)
	var used []bool // Apply's scratch set; Linial steps never touch it
	for i := 0; i < steps; i++ {
		// Exactness cone: after pass i (0-based), value(u) is exact iff
		// dist(u) + d·(i+1) <= T. Computing only inside the cone also
		// guarantees every input read is itself exact (inputs live one
		// cone-level higher).
		zone := b.T - d*(i+1)
		next := make([]int, n)
		copy(next, colors)
		for u := 0; u < n; u++ {
			if b.Dist[u] > zone {
				continue
			}
			nbrs := make([]int, 0, len(powNbrs[u]))
			for _, w := range powNbrs[u] {
				nbrs = append(nbrs, colors[w])
			}
			next[u] = red.Apply(i, colors[u], nbrs, &used)
		}
		colors = next
	}
	return colors[0], red.FixedPoint()
}

// powerNeighbors returns, for each ball vertex, the other ball vertices at
// ball-distance in [1, d]. Ball adjacency is available only where wiring is
// known, which covers everything the exactness zone ever reads.
func powerNeighbors(b *view.Ball, d int) [][]int {
	n := b.N()
	adj := ballNeighbors(b)
	out := make([][]int, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for src := 0; src < n; src++ {
		dist[src] = 0
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if dist[u] == d {
				continue
			}
			for _, w := range adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
					out[src] = append(out[src], w)
				}
			}
		}
		for _, u := range queue {
			dist[u] = -1
		}
	}
	return out
}

// ballNeighbors lists every ball vertex's known ball-internal neighbors in
// one pass over the enriched records' ports. An enriched vertex lists its
// ports' neighbors in port order. A bare boundary vertex's wiring is known
// only from the inside, so it lists, in ascending order and once each, the
// enriched vertices with a port pointing at it.
func ballNeighbors(b *view.Ball) [][]int {
	nbrs := make([][]int, b.N())
	for u, rec := range b.Recs {
		for _, pl := range rec.Ports {
			w := b.LocalIndex(pl.Name)
			if w < 0 {
				continue
			}
			nbrs[u] = append(nbrs[u], w)
			if in := nbrs[w]; b.Recs[w].Ports == nil && (len(in) == 0 || in[len(in)-1] != u) {
				nbrs[w] = append(in, u)
			}
		}
	}
	return nbrs
}

// Theorem6Plan resolves the circular dependency between the collection
// radius and the inner runtime: D must cover twice the inner algorithm's
// runtime under ℓ'-bit IDs (plus the checking radius r), while ℓ' is the
// bit length of the power-Linial palette for radius D. Runtime is the
// caller-supplied bound T(Δ, ℓ) of the inner algorithm.
type Theorem6Plan struct {
	D        int // locality horizon: short IDs unique within distance D
	R        int // collection radius: D · len(power-Linial schedule)
	BitsOut  int // ℓ'
	DeltaPow int // degree bound of G^D
	FakeN    int // 2^ℓ'
	InnerT   int // inner runtime bound under ℓ'-bit IDs
}

// NewTheorem6Plan iterates the fixed point D = 2·(T(Δ, ℓ'(D)) + r): the
// short IDs must be unique within twice the inner horizon (runtime plus
// checking radius), while the ID length ℓ' itself depends on D through the
// power-graph palette. A larger D only strengthens uniqueness, so the
// iteration accepts as soon as the required horizon stops growing. It
// panics if the iteration diverges — exactly the regime where the
// theorem's premise (ε small enough) is violated.
func NewTheorem6Plan(tBound func(delta, bits int) int, delta, idBits, checkRadius int) Theorem6Plan {
	idSpace := 1 << idBits
	d := 2
	for iter := 0; iter < 64; iter++ {
		deltaPow := powDegree(delta, d)
		red := linial.NewReduction(idSpace, deltaPow, 0, false)
		bits := mathx.CeilLog2(red.FixedPoint())
		if bits < 1 {
			bits = 1
		}
		t := tBound(delta, bits)
		next := 2 * (t + checkRadius)
		if next < 1 {
			next = 1
		}
		if next <= d {
			return Theorem6Plan{
				D: d, R: mathx.Max(1, d*red.Steps()), BitsOut: bits,
				DeltaPow: deltaPow, FakeN: 1 << bits, InnerT: t,
			}
		}
		d = next
	}
	panic("speedup: Theorem 6 plan iteration diverged (inner runtime grows too fast in ID length)")
}

// Theorem5Palette returns the compressed-ID palette size of the Theorem 5
// construction; the inner deterministic algorithm should be configured
// with this as its ID space.
func Theorem5Palette(nameBits, n int) int {
	return linial.NewFamily(1<<nameBits, mathx.Max(1, n-1)).PaletteSize()
}

// powDegree bounds the degree of G^d: Δ·(Δ-1)^(d-1), saturating.
func powDegree(delta, d int) int {
	if delta <= 1 {
		return delta
	}
	deg := delta
	for i := 1; i < d; i++ {
		if deg > 1<<20 {
			return 1 << 20
		}
		deg *= delta - 1
	}
	return deg
}

// NewTheorem6Factory assembles the full transform: collect radius R, run
// power-Linial to get locally-unique short IDs, and re-run the inner
// algorithm under (ID', 2^ℓ').
func NewTheorem6Factory(plan Theorem6Plan, idBits int, inner sim.Factory) sim.Factory {
	idSpace := 1 << idBits
	return NewFactory(Options{
		Radius: plan.R,
		Relabel: func(ball *view.Ball, env sim.Env) Relabeled {
			color, _ := PowerLinialID(ball, plan.D, idSpace, plan.DeltaPow)
			return Relabeled{ID: uint64(color) + 1, N: plan.FakeN}
		},
		Inner: inner,
	})
}

// NewTheorem5Factory builds the Rand-from-Det construction: draw random
// nameBits-bit identifiers, compress them with one Linial (Theorem 1) step
// on G^{2t+1} — t is the deterministic algorithm's runtime bound on this
// instance — and simulate the deterministic algorithm with the compressed
// IDs and the TRUE n. Failure requires two random identifiers to collide
// within the horizon: probability < n²/2^nameBits.
func NewTheorem5Factory(t, nameBits, n, maxDeg int, inner sim.Factory) sim.Factory {
	radius := 2*t + 1
	// One Theorem 1 step on the power graph: the family tolerates up to
	// n-1 constraining neighbors (the paper's bound Δ' < n).
	fam := linial.NewFamily(1<<nameBits, mathx.Max(1, n-1))
	return NewFactory(Options{
		Radius: radius,
		NameOf: func(env sim.Env) uint64 {
			if env.Rand == nil {
				panic("speedup: Theorem 5 construction is RandLOCAL; Config.Randomized required")
			}
			return env.Rand.Uint64()%(1<<nameBits) + 1
		},
		Relabel: func(ball *view.Ball, env sim.Env) Relabeled {
			own := int(ball.Recs[0].Name) - 1
			nbrs := make([]int, 0, ball.N()-1)
			collision := false
			for u := 1; u < ball.N(); u++ {
				c := int(ball.Recs[u].Name) - 1
				if c == own {
					collision = true
					continue
				}
				nbrs = append(nbrs, c)
			}
			if collision {
				// A collided pair yields equal compressed IDs; the inner
				// deterministic algorithm then behaves as if IDs repeat
				// and its failure is caught by the verifier — precisely
				// the 1/poly(n) failure mode of Theorem 5.
				return Relabeled{ID: uint64(own) + 1, N: n}
			}
			return Relabeled{ID: uint64(fam.Reduce(own, nbrs)) + 1, N: n}
		},
		Inner: inner,
	})
}

// NewSlowColoringFactory returns the demonstration target of Theorem 6: a
// correct (Δ+1)-coloring algorithm whose round count deliberately carries
// an ℓ-dependent term. It colors via Linial+KW (palette 2^idBits derived
// from the IDs) and then idles for ceil(eps·ℓ/log2(Δ)) rounds, modeling
// the generic f(Δ) + ε·log_Δ n running time the theorem speeds up. The
// transform is oblivious to the idling being artificial; what it cuts is
// real measured rounds.
func NewSlowColoringFactory(delta int, epsNum, epsDen int) func(idBits int) sim.Factory {
	return func(idBits int) sim.Factory {
		lopt := linial.Options{
			InitialPalette: 1 << idBits,
			Delta:          delta,
			Target:         delta + 1,
			KW:             true,
		}
		inner, colorRounds := linial.NewFactoryRounds(lopt)
		idle := idleRounds(delta, idBits, epsNum, epsDen)
		return func() sim.Machine {
			return &slowColoring{
				inner:      inner(),
				innerSteps: colorRounds + 1,
				idle:       idle,
			}
		}
	}
}

// SlowColoringRounds is the runtime bound T(Δ, ℓ) of the slow coloring.
func SlowColoringRounds(delta int, epsNum, epsDen int) func(delta2, bits int) int {
	return func(_, bits int) int {
		lopt := linial.Options{
			InitialPalette: 1 << bits,
			Delta:          delta,
			Target:         delta + 1,
			KW:             true,
		}
		return linial.Rounds(lopt) + idleRounds(delta, bits, epsNum, epsDen)
	}
}

func idleRounds(delta, bits, epsNum, epsDen int) int {
	log2d := mathx.Max(1, mathx.FloorLog2(delta))
	return (epsNum*bits + epsDen*log2d - 1) / (epsDen * log2d)
}

type slowColoring struct {
	inner      sim.Machine
	innerSteps int
	idle       int
	out        any
}

var _ sim.Machine = (*slowColoring)(nil)

func (m *slowColoring) Init(env sim.Env) { m.inner.Init(env) }

func (m *slowColoring) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step <= m.innerSteps {
		send, done := m.inner.Step(step, recv)
		if done {
			m.out = m.inner.Output()
		}
		if step == m.innerSteps && m.idle == 0 {
			return send, true
		}
		return send, false
	}
	// ℓ-dependent idle tail.
	if step >= m.innerSteps+m.idle {
		return nil, true
	}
	return nil, false
}

func (m *slowColoring) Output() any { return m.out }
