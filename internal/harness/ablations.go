package harness

import (
	"fmt"
	"strings"

	"locality/internal/core"

	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/view"
)

// This file holds the supplementary experiments: E12 (graceful degradation
// under fault injection, in faulttolerance.go), E13 (the indistinguishability
// principle made mechanical) and the ablations A1–A3 on the library's own
// design choices.

// AllSupplementary runs E12, E13 and the ablations.
func AllSupplementary(cfg Config) []*Table {
	return []*Table{
		E12FaultTolerance(cfg),
		E13Indistinguishability(cfg),
		A1KWvsSweep(cfg),
		A2PeelThreshold(cfg),
		A3SizeBound(cfg),
	}
}

// ByIDSupplementary resolves only the supplementary drivers (E12, E13,
// A1..A3), case-insensitively; ByID resolves these and the main ones.
func ByIDSupplementary(id string) (func(Config) *Table, bool) {
	m := map[string]func(Config) *Table{
		"E12": E12FaultTolerance,
		"E13": E13Indistinguishability,
		"A1":  A1KWvsSweep,
		"A2":  A2PeelThreshold,
		"A3":  A3SizeBound,
	}
	f, ok := m[strings.ToUpper(id)]
	return f, ok
}

// E13Indistinguishability makes the proof device of Theorems 4/5
// mechanical: on a Δ-regular graph with girth > 2t+1, the radius-t view of
// every vertex is a tree, so no t-round algorithm can distinguish the graph
// from a tree — which is how the lower bounds transfer from high-girth
// graphs to trees. The experiment certifies the girth, collects every
// radius-t view through the simulator, and verifies each is acyclic.
func E13Indistinguishability(cfg Config) *Table {
	t := &Table{
		ID:    "E13",
		Title: "indistinguishability: high-girth balls are trees",
		Claim: "on a Δ-regular graph with girth g, every radius-t view with 2t+1 < g is " +
			"acyclic — t-round algorithms behave identically on the graph and on a tree",
		Columns: []string{"n", "Δ", "girth ≥", "t", "balls checked", "all trees"},
	}
	r := rng.New(cfg.Seed + 12)
	half := 64
	if !cfg.Quick {
		half = 256
	}
	const d = 3
	for _, minGirth := range []int{6, 8} {
		ecg, err := graph.HighGirthRegular(half, d, minGirth, 500, r)
		if err != nil {
			t.Note("girth %d: %v (skipped)", minGirth, err)
			continue
		}
		cfg.Row(t, func(t *Table) {
			tRounds := (minGirth - 2) / 2 // 2t+1 < g
			res, err := sim.Run(ecg.Graph, cfg.sim(t, sim.Config{IDs: ids.Sequential(ecg.N())}),
				view.NewCollectMachineFactory(tRounds, nil))
			if err != nil {
				panic(fmt.Sprintf("harness: E13 collection: %v", err))
			}
			allTrees := "yes"
			for v := 0; v < ecg.N(); v++ {
				ballVerts := ecg.BallVertices(v, tRounds)
				keep := make([]bool, ecg.N())
				for _, u := range ballVerts {
					keep[u] = true
				}
				sub, _, _ := ecg.InducedSubgraph(keep)
				if !sub.IsTree() {
					allTrees = "NO"
					break
				}
				// The collected ball must agree on the vertex count.
				ball := res.Outputs[v].(*view.Ball)
				if ball.N() != len(ballVerts) {
					allTrees = "NO (collection mismatch)"
					break
				}
			}
			t.AddRow(ecg.N(), d, minGirth, tRounds, ecg.N(), allTrees)
		})
	}
	cfg.Flush(t)
	t.Note("this is the 'hard graphs have girth Ω(log_Δ n), so the lower bounds also apply " +
		"to trees' step of Theorems 4 and 5, checked instance by instance")
	return t
}

// A1KWvsSweep ablates the final color-reduction strategy: the naive
// (fp - target)-round class sweep vs the Kuhn–Wattenhofer block reduction.
func A1KWvsSweep(cfg Config) *Table {
	t := &Table{
		ID:    "A1",
		Title: "ablation: class sweep vs Kuhn–Wattenhofer reduction",
		Claim: "KW reduces O(Δ²) colors to Δ+1 in O(Δ log Δ) rounds instead of O(Δ²); " +
			"it is what keeps the deterministic MIS/matching/bootstrap phases affordable",
		Columns: []string{"Δ", "fixed point", "sweep rounds", "KW rounds", "both valid"},
	}
	n := 256
	if !cfg.Quick {
		n = 1024
	}
	r := rng.New(cfg.Seed + 21)
	for _, delta := range []int{4, 8, 16, 32} {
		g := graph.RandomTree(n, delta, r)
		assignment := ids.Shuffled(n, r)
		cfg.Row(t, func(t *Table) {
			dd := g.MaxDegree()
			fp := linial.FixedPoint(n, dd)
			valid := true
			var rounds [2]int
			for i, kw := range []bool{false, true} {
				opt := linial.Options{InitialPalette: n, Delta: dd, Target: dd + 1, KW: kw}
				res, err := sim.Run(g, cfg.sim(t, sim.Config{IDs: assignment, MaxRounds: 1 << 22}), linial.NewFactory(opt))
				if err != nil {
					panic(fmt.Sprintf("harness: A1 run: %v", err))
				}
				rounds[i] = res.Rounds
				if lcl.Coloring(dd+1).Validate(lcl.Instance{G: g}, lcl.IntLabels(sim.IntOutputs(res))) != nil {
					valid = false
				}
			}
			okStr := "yes"
			if !valid {
				okStr = "NO"
			}
			t.AddRow(dd, fp, rounds[0], rounds[1], okStr)
		})
	}
	cfg.Flush(t)
	return t
}

// A2PeelThreshold ablates the forest-decomposition peeling threshold A:
// smaller A means more layers (more rounds linear in log n) but cheaper
// sweeps; larger A means fewer layers but Θ(A²) Linial fixed points.
func A2PeelThreshold(cfg Config) *Table {
	t := &Table{
		ID:    "A2",
		Title: "ablation: peeling threshold A in the Theorem 9 role",
		Claim: "rounds = O(L·A + A² + log* n) with L = O(log n / log((A+1)/2)): the A " +
			"sweet spot balances layer count against sweep width",
		Columns: []string{"A", "n", "peel layers", "total rounds", "valid"},
	}
	n := 4096
	if cfg.Quick {
		n = 1024
	}
	r := rng.New(cfg.Seed + 22)
	g := graph.RandomTree(n, 12, r)
	assignment := ids.Shuffled(n, r)
	for _, a := range []int{2, 4, 8, 11} {
		cfg.Row(t, func(t *Table) {
			opt := forest.Options{Q: 12, A: a}
			plan := forest.NewPlan(opt.Resolve(n))
			res, err := sim.Run(g, cfg.sim(t, sim.Config{IDs: assignment, MaxRounds: 1 << 22}), forest.NewFactory(opt))
			if err != nil {
				panic(fmt.Sprintf("harness: A2 run: %v", err))
			}
			t.AddRow(a, n, plan.Peel, res.Rounds,
				checkColoring(g, 12, sim.IntOutputs(res)))
		})
	}
	cfg.Flush(t)
	return t
}

// A3SizeBound ablates the shattered-component size bound of Theorem 11's
// Phase 2: too small a bound makes components overflow (visible failures);
// larger bounds cost rounds logarithmically.
func A3SizeBound(cfg Config) *Table {
	t := &Table{
		ID:    "A3",
		Title: "ablation: Phase-2 component size bound (Theorem 11)",
		Claim: "Phase 2's round budget is built from the component size bound: rounds grow " +
			"logarithmically in the bound, and an overflowing component fails visibly (never silently)",
		Columns: []string{"size bound", "n", "rounds", "failed vertices", "valid"},
	}
	n := 2048
	if cfg.Quick {
		n = 512
	}
	r := rng.New(cfg.Seed + 23)
	g := graph.RandomTree(n, 4, r)
	logn := mathx.CeilLog2(n + 1)
	for _, bound := range []int{3, 2 * logn, 8 * logn, 32 * logn} {
		cfg.Row(t, func(t *Table) {
			res, err := sim.Run(g, cfg.sim(t, sim.Config{Randomized: true, Seed: cfg.Seed + uint64(bound), MaxRounds: 1 << 22}),
				core.NewT11Factory(core.T11Options{Delta: 4, SizeBound: bound}))
			if err != nil {
				panic(fmt.Sprintf("harness: A3 run: %v", err))
			}
			colors := core.Colors(res.Outputs)
			failed := 0
			for _, c := range colors {
				if c == 0 {
					failed++
				}
			}
			t.AddRow(bound, n, res.Rounds, failed, checkColoring(g, 4, colors))
		})
	}
	cfg.Flush(t)
	t.Note("even the tiny bound rarely fails in practice: the shattered components are " +
		"path-like (S lives inside a degree-<=3 leftover forest) and peel within any budget; " +
		"the informative column is the rounds growth — logarithmic in the bound, which is why " +
		"the O(log n) choice adds only O(log log n) rounds, the crux of the Theorem 11 runtime")
	return t
}
