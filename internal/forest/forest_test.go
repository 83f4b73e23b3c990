package forest_test

import (
	"testing"

	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
)

// runColoring executes the forest machine and returns per-vertex colors.
func runColoring(t *testing.T, g *graph.Graph, assignment ids.Assignment, opt forest.Options) ([]int, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 100000}, forest.NewFactory(opt))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return sim.IntOutputs(res), res.Rounds
}

func TestColorsTreesWithSmallPalettes(t *testing.T) {
	r := rng.New(42)
	tests := []struct {
		name string
		g    *graph.Graph
		q    int
	}{
		{"path q=3", graph.Path(50), 3},
		{"random tree q=3", graph.RandomTree(300, 6, r), 3},
		{"random tree q=4", graph.RandomTree(300, 10, r), 4},
		{"uniform tree q=3", graph.UniformTree(200, r), 3},
		{"star q=3", graph.Star(64), 3},
		{"binary tree q=3", graph.CompleteKAry(2, 7), 3},
		{"wide tree q=5", graph.CompleteKAry(9, 3), 5},
		{"caterpillar q=3", graph.Caterpillar(30, 5), 3},
		{"single vertex", graph.Path(1), 3},
		{"two vertices", graph.Path(2), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assignment := ids.Shuffled(tt.g.N(), r)
			colors, _ := runColoring(t, tt.g, assignment, forest.Options{Q: tt.q})
			if err := lcl.Coloring(tt.q).Validate(lcl.Instance{G: tt.g}, lcl.IntLabels(colors)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestColorsForests(t *testing.T) {
	// Disconnected forest: two trees plus isolated vertices.
	r := rng.New(7)
	b := graph.NewBuilder(30)
	// Tree on 0..9 (path), tree on 10..19 (star at 10), 20..29 isolated.
	for i := 0; i < 9; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 11; i < 20; i++ {
		b.AddEdge(10, i)
	}
	g := b.MustBuild()
	colors, _ := runColoring(t, g, ids.Shuffled(30, r), forest.Options{Q: 3})
	if err := lcl.Coloring(3).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
		t.Fatal(err)
	}
}

func TestQEqualsDeltaColoring(t *testing.T) {
	// The E1 deterministic baseline: Δ-coloring a max-degree-Δ tree.
	r := rng.New(13)
	for _, delta := range []int{4, 8, 16} {
		g := graph.RandomTree(500, delta, r)
		colors, _ := runColoring(t, g, ids.Shuffled(500, r), forest.Options{Q: delta})
		if err := lcl.Coloring(delta).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatalf("Δ=%d: %v", delta, err)
		}
	}
}

func TestRoundsMatchPlanAndGrowLogarithmically(t *testing.T) {
	r := rng.New(3)
	var measured []int
	for _, n := range []int{64, 512, 4096, 32768} {
		g := graph.RandomTree(n, 3, r)
		opt := forest.Options{Q: 3, A: 2, SizeBound: n, IDSpace: n}
		colors, rounds := runColoring(t, g, ids.Shuffled(n, r), opt)
		if err := lcl.Coloring(3).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatal(err)
		}
		plan := forest.NewPlan(opt)
		if rounds != plan.Rounds() {
			t.Errorf("n=%d: rounds %d != plan %d", n, rounds, plan.Rounds())
		}
		measured = append(measured, rounds)
	}
	// Θ(log n): quadrupling n 3 times must grow rounds roughly linearly in
	// log n, not multiplicatively. rounds(32768)/rounds(64) should be
	// around log(32768)/log(64) = 2.5, certainly below 5.
	if measured[3] > 5*measured[0] {
		t.Errorf("round growth not logarithmic: %v", measured)
	}
	if measured[3] <= measured[0] {
		t.Errorf("rounds did not grow with n at all: %v", measured)
	}
}

// memberFactory runs the forest machine at the vertices member selects
// only, as Theorems 10 and 11 do in their Phase 2: a non-member halts at
// step 1 without sending, with output 0, so its neighbors hear nothing
// from it from the first step on.
func memberFactory(opt forest.Options, member func(v int) bool) sim.Factory {
	inner := forest.NewFactory(opt)
	return func() sim.Machine { return &memberMachine{inner: inner(), member: member} }
}

type memberMachine struct {
	inner  sim.Machine
	member func(v int) bool
	in     bool
}

func (m *memberMachine) Init(env sim.Env) {
	if m.in = m.member(env.Node); m.in {
		m.inner.Init(env)
	}
}

func (m *memberMachine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if !m.in {
		return nil, true
	}
	return m.inner.Step(step, recv)
}

func (m *memberMachine) Output() any {
	if !m.in {
		return 0
	}
	return m.inner.Output()
}

func runMembers(t *testing.T, g *graph.Graph, assignment ids.Assignment, opt forest.Options, member func(v int) bool) []int {
	t.Helper()
	res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 100000}, memberFactory(opt, member))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return sim.IntOutputs(res)
}

func TestActiveSubgraphRestriction(t *testing.T) {
	// Color only the odd-index vertices of a path: the member subgraph is
	// an independent set — every member should get a color, non-members
	// stay 0.
	r := rng.New(5)
	g := graph.Path(20)
	colors := runMembers(t, g, ids.Shuffled(20, r), forest.Options{Q: 3}, func(v int) bool { return v%2 == 1 })
	for v, c := range colors {
		if v%2 == 0 && c != 0 {
			t.Errorf("non-member %d colored %d", v, c)
		}
		if v%2 == 1 && (c < 1 || c > 3) {
			t.Errorf("member %d has color %d", v, c)
		}
	}
}

func TestActiveSubgraphComponent(t *testing.T) {
	// Restrict to a sub-path of a tree and verify the coloring is proper on
	// the induced subgraph, using the component size bound.
	r := rng.New(9)
	g := graph.Path(100)
	isActive := make([]bool, 100)
	for v := 20; v < 40; v++ {
		isActive[v] = true
	}
	opt := forest.Options{Q: 3, SizeBound: 25}
	colors := runMembers(t, g, ids.Shuffled(100, r), opt, func(v int) bool { return isActive[v] })
	sub, _, n2o := g.InducedSubgraph(isActive)
	subColors := make([]int, sub.N())
	for nv, ov := range n2o {
		subColors[nv] = colors[ov]
	}
	if err := lcl.Coloring(3).Validate(lcl.Instance{G: sub}, lcl.IntLabels(subColors)); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBoundTooSmallFailsGracefully(t *testing.T) {
	// A 100-vertex path with SizeBound 4 cannot finish peeling with A=2 in
	// the budgeted rounds... actually with A=2 a path peels in one round,
	// so use A=... paths always peel instantly. Use a complete binary tree
	// restricted budget: with SizeBound 2 the peel budget is tiny; deep
	// trees cannot finish. Expect failure outputs (0), not a panic or a
	// wrong coloring.
	r := rng.New(23)
	g := graph.CompleteKAry(2, 9) // 1023 vertices, peels layer by layer
	opt := forest.Options{Q: 3, A: 2, SizeBound: 2}
	res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(g.N(), r), MaxRounds: 100000}, forest.NewFactory(opt))
	if err != nil {
		t.Fatal(err)
	}
	colors := sim.IntOutputs(res)
	zero := 0
	for _, c := range colors {
		if c == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Error("expected some failure outputs with an impossible size bound")
	}
	_ = r
}

func TestNonForestFailsGracefully(t *testing.T) {
	// A ring cannot be peeled with A=1... with A=2 a ring CAN be peeled
	// (all degrees 2). Use A=2 on a ring: peeling works, orientation and
	// sweeps still function (a ring is 3-colorable), so instead force
	// non-forest behaviour with a clique on 5 vertices and Q=3, A=2: the
	// peel stalls (all degrees 4 > 2) and every vertex must fail.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.MustBuild()
	res, err := sim.Run(g, sim.Config{IDs: ids.Sequential(5), MaxRounds: 100000},
		forest.NewFactory(forest.Options{Q: 3, A: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range sim.IntOutputs(res) {
		if c != 0 {
			t.Errorf("vertex %d got color %d on a clique; expected failure output 0", v, c)
		}
	}
}

// TestPlanRoundsFormula pins Rounds() to the schedule written out from its
// parts: hello, peeling, layer settle, the Theorem 2 schedule, the H-sweep
// from the fixed point down to A+1 colors (empty when the ID space is
// already that small) and the final sweep.
func TestPlanRoundsFormula(t *testing.T) {
	for _, q := range []int{3, 4, 12} {
		for _, a := range []int{2, q - 1, 0} {
			for _, sizeBound := range []int{1, 40, 1000, 1 << 20} {
				for _, idSpace := range []int{2, 3, 13, 1000, 1 << 40} {
					opt := forest.Options{Q: q, A: a, SizeBound: sizeBound, IDSpace: idSpace}.Resolve(0)
					peel := forest.PeelRounds(sizeBound, opt.A)
					sweep := mathx.Max(0, linial.FixedPoint(idSpace, opt.A)-(opt.A+1))
					want := 1 + peel + 1 + len(linial.Schedule(idSpace, opt.A)) + sweep + peel*(opt.A+1)
					plan := forest.NewPlan(opt)
					if plan.Rounds() != want || plan.Peel != peel {
						t.Errorf("Q=%d A=%d SizeBound=%d IDSpace=%d: Rounds() = %d, Peel = %d; want %d, %d",
							q, opt.A, sizeBound, idSpace, plan.Rounds(), plan.Peel, want, peel)
					}
				}
			}
		}
	}
}

func TestPeelRounds(t *testing.T) {
	tests := []struct{ n, a, max int }{
		{1, 2, 1},
		{100, 2, 14},
		{1 << 20, 2, 37},
		{1 << 20, 8, 11},
	}
	for _, tt := range tests {
		if got := forest.PeelRounds(tt.n, tt.a); got > tt.max || got < 1 {
			t.Errorf("PeelRounds(%d,%d) = %d, want in [1,%d]", tt.n, tt.a, got, tt.max)
		}
	}
}

func TestEngineEquivalence(t *testing.T) {
	r := rng.New(8)
	g := graph.RandomTree(300, 6, r)
	assignment := ids.Shuffled(g.N(), r)
	var prev []int
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 100000},
			forest.NewFactory(forest.Options{Q: 4}))
		if err != nil {
			t.Fatal(err)
		}
		cur := sim.IntOutputs(res)
		if prev != nil {
			for v := range cur {
				if cur[v] != prev[v] {
					t.Fatalf("engines disagree at vertex %d: %d vs %d", v, prev[v], cur[v])
				}
			}
		}
		prev = cur
	}
}

// TestFactoryReusedAcrossSizes runs one factory with a size-dependent plan
// (SizeBound and IDSpace default to n) on two graph sizes and back: every
// run must follow the plan of its own n.
func TestFactoryReusedAcrossSizes(t *testing.T) {
	r := rng.New(12)
	opt := forest.Options{Q: 3}
	f := forest.NewFactory(opt)
	for _, n := range []int{64, 4096, 64} {
		g := graph.RandomTree(n, 3, r)
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(n, r), MaxRounds: 100000}, f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := lcl.Coloring(3).Validate(lcl.Instance{G: g}, lcl.IntLabels(sim.IntOutputs(res))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := forest.NewPlan(opt.Resolve(n)).Rounds(); res.Rounds != want {
			t.Errorf("n=%d: rounds %d, plan %d", n, res.Rounds, want)
		}
	}
}
