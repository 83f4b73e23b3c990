package edgecolor_test

import (
	"testing"

	"locality/internal/edgecolor"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// runEdgeColor executes the machine and returns the reconciled edge colors.
func runEdgeColor(t *testing.T, g *graph.Graph, assignment ids.Assignment) ([]int, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{IDs: assignment, MaxRounds: 10000}, edgecolor.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	colors, err := edgecolor.EdgeColors(g, res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return colors, res.Rounds
}

// checkProper verifies no two incident edges share a color and the palette
// bound holds.
func checkProper(t *testing.T, g *graph.Graph, colors []int, palette int) {
	t.Helper()
	ecg := &graph.EdgeColoredGraph{Graph: g, Colors: colors, NumColors: palette}
	if err := ecg.VerifyEdgeColoring(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColoringVariety(t *testing.T) {
	r := rng.New(3)
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"random tree", graph.RandomTree(200, 6, r)},
		{"ring", graph.Ring(31)},
		{"bounded degree", graph.RandomBoundedDegree(150, 300, 7, r)},
		{"star", graph.Star(20)},
		{"single edge", graph.Path(2)},
		{"grid", graph.Grid(8, 8)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.g.N()
			colors, rounds := runEdgeColor(t, tt.g, ids.Shuffled(n, r))
			delta := tt.g.MaxDegree()
			palette := 2*delta - 1
			if palette < 1 {
				palette = 1
			}
			checkProper(t, tt.g, colors, palette)
			if want := edgecolor.Rounds(n, delta); rounds != want {
				t.Errorf("rounds %d, predicted %d", rounds, want)
			}
		})
	}
}

func TestEdgeColoringRoundsLogStar(t *testing.T) {
	r := rng.New(5)
	var rounds []int
	for _, n := range []int{128, 1024, 8192} {
		g := graph.RandomTree(n, 4, r)
		_, rds := runEdgeColor(t, g, ids.Shuffled(n, r))
		rounds = append(rounds, rds)
	}
	// O(log* n + Δ log Δ): growth across a 64x size increase stays tiny.
	if rounds[2]-rounds[0] > 4 {
		t.Errorf("edge-coloring rounds grew too fast: %v", rounds)
	}
}

func TestEdgeColoringEngineEquivalence(t *testing.T) {
	r := rng.New(7)
	g := graph.RandomTree(80, 4, r)
	assignment := ids.Shuffled(80, r)
	var prev []int
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 10000},
			edgecolor.NewFactory())
		if err != nil {
			t.Fatal(err)
		}
		colors, err := edgecolor.EdgeColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for e := range colors {
				if colors[e] != prev[e] {
					t.Fatalf("engines disagree on edge %d", e)
				}
			}
		}
		prev = colors
	}
}

func TestEdgeColoringPortShuffleInvariance(t *testing.T) {
	r := rng.New(9)
	g := graph.RandomTree(120, 5, r)
	sg := g.ShufflePorts(r)
	assignment := ids.Shuffled(120, r)
	for _, gg := range []*graph.Graph{g, sg} {
		colors, _ := runEdgeColor(t, gg, assignment)
		checkProper(t, gg, colors, 2*gg.MaxDegree()-1)
	}
}

func TestEdgeColorsDetectsDisagreement(t *testing.T) {
	g := graph.Path(3)
	outputs := []any{
		edgecolor.Result{PortColors: []int{1}},
		edgecolor.Result{PortColors: []int{2, 3}}, // disagrees with vertex 0 about their shared edge
		edgecolor.Result{PortColors: []int{3}},
	}
	if _, err := edgecolor.EdgeColors(g, outputs); err == nil {
		t.Error("endpoint disagreement not detected")
	}
}
