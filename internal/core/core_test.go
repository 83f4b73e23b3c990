package core_test

import (
	"reflect"
	"testing"

	"locality/internal/core"
	"locality/internal/graph"
	"locality/internal/lcl"
	"locality/internal/rng"
	"locality/internal/sim"
)

// runT11 executes the Theorem 11 machine and returns colors + rounds.
func runT11(t *testing.T, g *graph.Graph, delta int, seed uint64) ([]int, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: seed, MaxRounds: 1 << 20},
		core.NewT11Factory(core.T11Options{Delta: delta}))
	if err != nil {
		t.Fatalf("T11 run failed: %v", err)
	}
	return core.Colors(res.Outputs), res.Rounds
}

func TestT11ColorsTrees(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		name  string
		g     *graph.Graph
		delta int
	}{
		{"random tree Δ=8", graph.RandomTree(400, 8, r), 8},
		{"random tree Δ=12", graph.RandomTree(600, 12, r), 12},
		{"path Δ=8", graph.Path(200), 8},
		{"complete 7-ary Δ=8", graph.CompleteKAry(7, 3), 8},
		{"star Δ=40", graph.Star(41), 40},
		{"caterpillar Δ=10", graph.Caterpillar(40, 8), 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			colors, _ := runT11(t, tt.g, tt.delta, 7)
			if err := lcl.Coloring(tt.delta).Validate(lcl.Instance{G: tt.g}, lcl.IntLabels(colors)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestT11SuccessRateModerateDelta(t *testing.T) {
	// The algorithm is proved for Δ >= 55 but mechanically works for much
	// smaller Δ; at Δ=10 on 500-vertex trees it should succeed in the
	// overwhelming majority of seeds.
	r := rng.New(3)
	failures := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		g := graph.RandomTree(500, 10, r)
		colors, _ := runT11(t, g, 10, uint64(100+i))
		if err := lcl.Coloring(10).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/%d failures; expected near-perfect success", failures, trials)
	}
}

func TestT11RoundsMatchPlanAndScaleLogLog(t *testing.T) {
	r := rng.New(5)
	var rounds []int
	for _, n := range []int{256, 4096, 65536} {
		g := graph.RandomTree(n, 8, r)
		colors, got := runT11(t, g, 8, 11)
		if err := lcl.Coloring(8).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := core.T11Rounds(n, core.T11Options{Delta: 8})
		if got != want {
			t.Errorf("n=%d: rounds %d, plan %d", n, got, want)
		}
		rounds = append(rounds, got)
	}
	// O(log_Δ log n + log* n): across a 256x increase in n the rounds may
	// grow only via the log log n Phase-2 budget — additively, slowly.
	if rounds[2]-rounds[0] > 40 {
		t.Errorf("round growth too fast for log log n: %v", rounds)
	}
}

// engineResults runs f on g with cfg under both engines and fails unless the two
// Results — rounds, per-node halt rounds, message count and outputs — and
// the two RoundStats sequences (messages, bytes, active and halted nodes
// per step) are identical. The sequential engine skips the steps of
// sleeping nodes (see sim.Sleeper); the concurrent engine steps every live
// node, so this pins the T10/T11 sleep windows to the reference semantics.
func engineResults(t *testing.T, g *graph.Graph, cfg sim.Config, f sim.Factory) *sim.Result {
	t.Helper()
	var prev *sim.Result
	var prevStats []sim.RoundStats
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var stats []sim.RoundStats
		cfg.Engine = engine
		cfg.OnRoundStats = func(s sim.RoundStats) { stats = append(stats, s) }
		res, err := sim.Run(g, cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if prevStats != nil && !reflect.DeepEqual(prevStats, stats) {
			for i := range min(len(stats), len(prevStats)) {
				if stats[i] != prevStats[i] {
					t.Fatalf("engines disagree at step %d: %+v vs %+v", i+1, prevStats[i], stats[i])
				}
			}
			t.Fatalf("engines disagree: %d vs %d steps of stats", len(prevStats), len(stats))
		}
		prevStats = stats
		if prev != nil && !reflect.DeepEqual(prev, res) {
			if prev.Rounds != res.Rounds || prev.MessagesSent != res.MessagesSent {
				t.Fatalf("engines disagree: rounds %d vs %d, messages %d vs %d",
					prev.Rounds, res.Rounds, prev.MessagesSent, res.MessagesSent)
			}
			for v := range res.Outputs {
				if prev.HaltRound[v] != res.HaltRound[v] || prev.Outputs[v] != res.Outputs[v] {
					t.Fatalf("engines disagree at vertex %d: halt %d vs %d, output %+v vs %+v",
						v, prev.HaltRound[v], res.HaltRound[v], prev.Outputs[v], res.Outputs[v])
				}
			}
			t.Fatal("engines disagree")
		}
		prev = res
	}
	return prev
}

// randomized is the RandLOCAL run configuration of the engine tests.
func randomized(seed uint64) sim.Config {
	return sim.Config{Randomized: true, Seed: seed, MaxRounds: 1 << 20}
}

func TestT11EngineEquivalence(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		delta int
		wantS bool
	}{
		{"delta8", graph.RandomTree(200, 8, rng.New(9)), 8, false},
		// With Δ = 4 Phase 1 peels a single color class, so S is non-empty:
		// vertices outside S sleep through Phase 2 while their S neighbors
		// run the forest coloring and send to them.
		{"delta4", graph.RandomTree(200, 4, rng.New(9)), 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := engineResults(t, c.g, randomized(13), core.NewT11Factory(core.T11Options{Delta: c.delta}))
			inS := 0
			for _, o := range res.Outputs {
				if o.(core.T11Result).InS {
					inS++
				}
			}
			if c.wantS && inS == 0 {
				t.Fatal("S is empty: Phase 2 colored nothing")
			}
		})
	}
}

func TestT10EngineEquivalence(t *testing.T) {
	g := graph.RandomTree(200, 16, rng.New(10))
	// E3's quick-scale shape: the complete 35-ary tree of depth 2, where
	// most vertices are final after the first iteration and rest.
	e3 := graph.CompleteKAry(35, 2)
	g200 := graph.RandomTree(400, 200, rng.New(12))
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		opt     core.T10Options
		wantBad bool
	}{
		{"default", g, core.T10Options{Delta: 16}, false},
		// A tight Filtering(1) threshold marks vertices bad, so good
		// vertices sleep through Phase 2 while their bad neighbors run the
		// forest coloring and send to them.
		{"slack2", g, core.T10Options{Delta: 16, PaletteSlack: 2}, true},
		{"e3-slack8", e3, core.T10Options{Delta: 36, PaletteSlack: 8}, false},
		{"e3-slack2", e3, core.T10Options{Delta: 36, PaletteSlack: 2}, true},
		// Δ = 200 leaves 185 colours for Phase 1, so a bid spans three
		// 64-bit words, and its Phase 2 forest colours with 15. On the
		// caterpillar with 195 legs per spine vertex, a spine vertex whose
		// first bid a leg also bid is bad under PaletteSlack 1.
		{"delta200", g200, core.T10Options{Delta: 200}, false},
		{"delta200-slack1", graph.Caterpillar(3, 195), core.T10Options{Delta: 200, PaletteSlack: 1}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := engineResults(t, c.g, randomized(14), core.NewT10Factory(c.opt))
			bad := 0
			for _, o := range res.Outputs {
				if o.(core.T10Result).Bad {
					bad++
				}
			}
			if c.wantBad && bad == 0 {
				t.Fatal("the bad set is empty: Phase 2 colored nothing")
			}
		})
	}
}

// TestPhase2Palettes runs both theorems where Phase 2 colors some vertices
// and checks where its colors land: Theorem 10 colors its bad components
// with the reserved colors Δ-⌈√Δ⌉+1..Δ, and Theorem 11 colors S with 1..3.
func TestPhase2Palettes(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		delta  int
		f      sim.Factory
		lo, hi int
	}{
		// E3's quick shape at slack 2: Δ = 36 reserves ⌈√36⌉ = 6 colors.
		{"t10", graph.CompleteKAry(35, 2), 36, core.NewT10Factory(core.T10Options{Delta: 36, PaletteSlack: 2}), 31, 36},
		{"t11", graph.RandomTree(200, 4, rng.New(9)), 4, core.NewT11Factory(core.T11Options{Delta: 4}), 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := sim.Run(c.g, randomized(14), c.f)
			if err != nil {
				t.Fatal(err)
			}
			colors := core.Colors(res.Outputs)
			if err := lcl.Coloring(c.delta).Validate(lcl.Instance{G: c.g}, lcl.IntLabels(colors)); err != nil {
				t.Fatal(err)
			}
			phase2 := 0
			for v, o := range res.Outputs {
				phase := 0
				switch r := o.(type) {
				case core.T10Result:
					phase = r.Phase
				case core.T11Result:
					phase = r.Phase
				}
				if phase != 2 {
					continue
				}
				phase2++
				if colors[v] < c.lo || colors[v] > c.hi {
					t.Errorf("vertex %d: Phase 2 color %d outside %d..%d", v, colors[v], c.lo, c.hi)
				}
			}
			if phase2 == 0 {
				t.Fatal("Phase 2 colored nothing")
			}
			t.Logf("%d of %d vertices colored in Phase 2", phase2, c.g.N())
		})
	}
}

// TestFactoryReusedAcrossSizes runs one T10 and one T11 factory on two graph
// sizes and back: every run must get the plan of its own n.
func TestFactoryReusedAcrossSizes(t *testing.T) {
	const smallN, largeN = 40, 2048 // default SizeBounds 48 and 96 peel differently
	r := rng.New(31)
	small, large := graph.RandomTree(smallN, 16, r), graph.RandomTree(largeN, 16, r)
	t10 := core.NewT10Factory(core.T10Options{Delta: 16})
	t11 := core.NewT11Factory(core.T11Options{Delta: 16})
	if core.T10Rounds(smallN, core.T10Options{Delta: 16}) == core.T10Rounds(largeN, core.T10Options{Delta: 16}) ||
		core.T11Rounds(smallN, core.T11Options{Delta: 16}) == core.T11Rounds(largeN, core.T11Options{Delta: 16}) {
		t.Fatal("the plans of the two sizes coincide; the test cannot tell them apart")
	}
	for i, g := range []*graph.Graph{small, large, small} {
		n := g.N()
		for _, c := range []struct {
			name string
			f    sim.Factory
			want int
		}{
			{"T10", t10, core.T10Rounds(n, core.T10Options{Delta: 16})},
			{"T11", t11, core.T11Rounds(n, core.T11Options{Delta: 16})},
		} {
			res, err := sim.Run(g, sim.Config{Randomized: true, Seed: uint64(40 + i), MaxRounds: 1 << 20}, c.f)
			if err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			if err := lcl.Coloring(16).Validate(lcl.Instance{G: g}, lcl.IntLabels(core.Colors(res.Outputs))); err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			if res.Rounds != c.want {
				t.Errorf("%s run %d (n=%d): rounds %d, plan %d", c.name, i, n, res.Rounds, c.want)
			}
		}
	}
}

func TestT11PhaseAttribution(t *testing.T) {
	r := rng.New(15)
	g := graph.RandomTree(800, 10, r)
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 17, MaxRounds: 1 << 20},
		core.NewT11Factory(core.T11Options{Delta: 10}))
	if err != nil {
		t.Fatal(err)
	}
	phases := map[int]int{}
	for _, o := range res.Outputs {
		phases[o.(core.T11Result).Phase]++
	}
	// Phase 1 should color the overwhelming majority.
	if phases[1] < g.N()*3/4 {
		t.Errorf("phase 1 colored only %d/%d vertices", phases[1], g.N())
	}
	if phases[0] > 0 {
		t.Errorf("%d vertices failed", phases[0])
	}
	t.Logf("phase attribution: %v", phases)
}

func runT10(t *testing.T, g *graph.Graph, delta int, seed uint64) ([]int, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: seed, MaxRounds: 1 << 20},
		core.NewT10Factory(core.T10Options{Delta: delta}))
	if err != nil {
		t.Fatalf("T10 run failed: %v", err)
	}
	return core.Colors(res.Outputs), res.Rounds
}

func TestT10ColorsTrees(t *testing.T) {
	r := rng.New(21)
	tests := []struct {
		name  string
		g     *graph.Graph
		delta int
	}{
		{"random tree Δ=16", graph.RandomTree(500, 16, r), 16},
		{"random tree Δ=32", graph.RandomTree(800, 32, r), 32},
		{"complete 15-ary Δ=16", graph.CompleteKAry(15, 2), 16},
		{"path Δ=16", graph.Path(300), 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			colors, _ := runT10(t, tt.g, tt.delta, 23)
			if err := lcl.Coloring(tt.delta).Validate(lcl.Instance{G: tt.g}, lcl.IntLabels(colors)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestT10RoundsMatchPlan(t *testing.T) {
	r := rng.New(25)
	for _, n := range []int{256, 4096} {
		g := graph.RandomTree(n, 16, r)
		colors, got := runT10(t, g, 16, 29)
		if err := lcl.Coloring(16).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := core.T10Rounds(n, core.T10Options{Delta: 16})
		if got != want {
			t.Errorf("n=%d: rounds %d, plan %d", n, got, want)
		}
	}
}

func TestT10MostVerticesColoredInPhase1(t *testing.T) {
	r := rng.New(31)
	g := graph.RandomTree(2000, 32, r)
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 33, MaxRounds: 1 << 20},
		core.NewT10Factory(core.T10Options{Delta: 32}))
	if err != nil {
		t.Fatal(err)
	}
	phase1, bad, failed := 0, 0, 0
	for _, o := range res.Outputs {
		tr := o.(core.T10Result)
		if tr.Phase == 1 {
			phase1++
		}
		if tr.Bad {
			bad++
		}
		if tr.Color == 0 {
			failed++
		}
	}
	if failed > 0 {
		t.Errorf("%d vertices failed", failed)
	}
	if phase1 < g.N()/2 {
		t.Errorf("ColorBidding colored only %d/%d vertices", phase1, g.N())
	}
	t.Logf("phase1=%d bad=%d of n=%d", phase1, bad, g.N())
}

func TestCSequenceTowerGrowth(t *testing.T) {
	cs := core.CSequence(10000)
	if len(cs) > 25 {
		t.Errorf("c-sequence has %d entries for Δ=10000; expected tower (log*-ish) growth", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] && cs[i] != 100 { // √10000 = 100 cap
			t.Errorf("c-sequence not increasing at %d: %v", i, cs)
		}
	}
	if cs[len(cs)-1] != 100 {
		t.Errorf("c-sequence does not end at √Δ: %v", cs[len(cs)-1])
	}
}

func TestT11BadSeedStillDetectable(t *testing.T) {
	// Whatever the seed, the output must be either a valid Δ-coloring or
	// contain visible failures (0 colors) — never a silently wrong
	// coloring with all labels in range but improper... the verifier is
	// the judge either way; run many seeds and require: every failure is
	// a 0-label failure, not an improper-edge failure.
	r := rng.New(41)
	for i := 0; i < 5; i++ {
		g := graph.RandomTree(300, 8, r)
		colors, _ := runT11(t, g, 8, uint64(i))
		err := lcl.Coloring(8).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors))
		if err == nil {
			continue
		}
		// A failure must be attributable to a 0 label.
		hasZero := false
		for _, c := range colors {
			if c == 0 {
				hasZero = true
				break
			}
		}
		if !hasZero {
			t.Fatalf("seed %d: improper coloring without failure marks: %v", i, err)
		}
	}
}
