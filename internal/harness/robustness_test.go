package harness_test

// Robustness suite: every algorithm must stay correct when the port
// numbering is adversarially permuted (LOCAL algorithms may use ports only
// as opaque channel names) and, for deterministic algorithms, under
// adversarial ID assignments.

import (
	"testing"

	"locality/internal/core"
	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/matching"
	"locality/internal/mis"
	"locality/internal/ringcolor"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/sinkless"
)

func TestPortShuffleInvariance(t *testing.T) {
	r := rng.New(77)
	base := graph.RandomTree(300, 8, r)
	shuffled := base.ShufflePorts(r)

	t.Run("theorem11", func(t *testing.T) {
		for _, g := range []*graph.Graph{base, shuffled} {
			res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 5, MaxRounds: 1 << 22},
				core.NewT11Factory(core.T11Options{Delta: 8}))
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Coloring(8).Validate(lcl.Instance{G: g},
				lcl.IntLabels(core.Colors(res.Outputs))); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("forest", func(t *testing.T) {
		assignment := ids.Shuffled(300, r)
		for _, g := range []*graph.Graph{base, shuffled} {
			res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 1 << 22},
				forest.NewFactory(forest.Options{Q: 4}))
			if err != nil {
				t.Fatal(err)
			}
			if err := lcl.Coloring(4).Validate(lcl.Instance{G: g},
				lcl.IntLabels(sim.IntOutputs(res))); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("luby", func(t *testing.T) {
		for _, g := range []*graph.Graph{base, shuffled} {
			res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 9},
				mis.NewLubyFactory())
			if err != nil {
				t.Fatal(err)
			}
			inSet := make([]bool, g.N())
			for v, o := range res.Outputs {
				inSet[v] = o.(bool)
			}
			if err := lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(inSet)); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("det-matching", func(t *testing.T) {
		assignment := ids.Shuffled(300, r)
		for _, g := range []*graph.Graph{base, shuffled} {
			res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 1 << 22},
				matching.NewDetFactory())
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]lcl.MatchLabel, g.N())
			for v, o := range res.Outputs {
				labels[v] = o.(lcl.MatchLabel)
			}
			if err := lcl.ValidateMatching(lcl.Instance{G: g}, labels); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestPortShuffleRingAlgorithms(t *testing.T) {
	// The oriented-ring algorithms take the orientation as a promise
	// input, which must be recomputed for the shuffled ports.
	r := rng.New(79)
	base := graph.Ring(64)
	shuffled := base.ShufflePorts(r)
	for _, g := range []*graph.Graph{base, shuffled} {
		inputs, err := ringcolor.RingOrientation(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(64, r), Inputs: inputs},
			ringcolor.NewColeVishkinFactory(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := lcl.Coloring(3).Validate(lcl.Instance{G: g},
			lcl.IntLabels(sim.IntOutputs(res))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPortShuffleSinkless(t *testing.T) {
	r := rng.New(81)
	ecg := graph.RandomRegularBipartite(64, 3, r)
	shuffledG := ecg.ShufflePorts(r)
	shuffled := &graph.EdgeColoredGraph{Graph: shuffledG, Colors: ecg.Colors, NumColors: ecg.NumColors}
	for _, g := range []*graph.EdgeColoredGraph{ecg, shuffled} {
		inst := lcl.Instance{G: g.Graph, EdgeColors: g.Colors, NumEdgeColors: g.NumColors}
		res, err := sim.Run(g.Graph, sim.Config{Randomized: true, Seed: 21, Inputs: inst.NodeInputs()},
			sinkless.NewOrientFactory())
		if err != nil {
			t.Fatal(err)
		}
		if err := lcl.ValidateOrientation(inst, sinkless.OrientLabels(res.Outputs)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdversarialIDsForest(t *testing.T) {
	// Huge ID gaps must not break the deterministic forest coloring (the
	// machine treats IDs only through its IDSpace bound).
	r := rng.New(83)
	g := graph.RandomTree(200, 5, r)
	assignment := ids.AdversarialGaps(200, 1<<32)
	res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 1 << 22},
		forest.NewFactory(forest.Options{Q: 3, IDSpace: 1 << 62}))
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.Coloring(3).Validate(lcl.Instance{G: g},
		lcl.IntLabels(sim.IntOutputs(res))); err != nil {
		t.Fatal(err)
	}
}
