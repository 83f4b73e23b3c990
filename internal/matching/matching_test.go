package matching_test

import (
	"errors"
	"testing"

	"locality/internal/edgecolor"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/matching"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
)

func matchLabels(res *sim.Result) []lcl.MatchLabel {
	out := make([]lcl.MatchLabel, len(res.Outputs))
	for v, o := range res.Outputs {
		out[v] = o.(lcl.MatchLabel)
	}
	return out
}

func TestRandMatchingValid(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 8; trial++ {
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = graph.RandomTree(150, 6, r)
		case 1:
			g = graph.Ring(40)
		case 2:
			g = graph.RandomBoundedDegree(120, 250, 8, r)
		default:
			g = graph.Path(2)
		}
		res, err := sim.Run(g, sim.Config{Randomized: true, Seed: uint64(trial + 1)},
			matching.NewRandFactory())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := lcl.ValidateMatching(lcl.Instance{G: g}, matchLabels(res)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDetMatchingValid(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 6; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.RandomTree(100, 5, r)
		case 1:
			g = graph.Ring(30)
		default:
			g = graph.RandomBoundedDegree(80, 160, 6, r)
		}
		n := g.N()
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(n, r), MaxRounds: 10000},
			matching.NewDetFactory())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := lcl.ValidateMatching(lcl.Instance{G: g}, matchLabels(res)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := matching.DetRounds(n, g.MaxDegree())
		if res.Rounds != want {
			t.Errorf("trial %d: rounds %d, predicted %d", trial, res.Rounds, want)
		}
	}
}

// TestDetRoundsIsEdgeColoringPlusSweep checks that deterministic matching
// costs the edge coloring's rounds, one step to start the sweep, and one
// step per class 1..2Δ-1, and that a run takes exactly that many rounds.
func TestDetRoundsIsEdgeColoringPlusSweep(t *testing.T) {
	r := rng.New(12)
	for _, tc := range []struct {
		g   *graph.Graph
		ids func(n int) ids.Assignment
	}{
		{graph.Path(1), ids.Sequential},
		{graph.Path(2), ids.Sequential},
		{graph.Ring(20), ids.Sequential},
		{graph.RandomTree(90, 6, r), func(n int) ids.Assignment { return ids.Shuffled(n, r) }},
	} {
		n, delta := tc.g.N(), tc.g.MaxDegree()
		ec := edgecolor.Rounds(n, delta)
		want := ec + 1 + mathx.Max(1, 2*delta-1)
		if got := matching.DetRounds(n, delta); got != want {
			t.Errorf("n=%d Δ=%d: DetRounds = %d, want edgecolor's %d + 1 + (2Δ-1) = %d", n, delta, got, ec, want)
		}
		res, err := sim.Run(tc.g, sim.Config{IDs: tc.ids(n), MaxRounds: 10000},
			matching.NewDetFactory())
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != want {
			t.Errorf("n=%d Δ=%d: run took %d rounds, want %d", n, delta, res.Rounds, want)
		}
		if err := lcl.ValidateMatching(lcl.Instance{G: tc.g}, matchLabels(res)); err != nil {
			t.Errorf("n=%d Δ=%d: %v", n, delta, err)
		}
	}
}

func TestDetMatchingEngineEquivalence(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomTree(60, 4, r)
	assignment := ids.Shuffled(60, r)
	var prev []lcl.MatchLabel
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 10000},
			matching.NewDetFactory())
		if err != nil {
			t.Fatal(err)
		}
		cur := matchLabels(res)
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

func TestRandMatchingRoundsLogarithmic(t *testing.T) {
	r := rng.New(8)
	var rounds []int
	for _, n := range []int{64, 512, 4096} {
		g := graph.RandomBoundedDegree(n, 2*n, 10, r)
		res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 9},
			matching.NewRandFactory())
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, res.Rounds)
	}
	if rounds[2] > 6*rounds[0]+20 {
		t.Errorf("randomized matching growth not logarithmic: %v", rounds)
	}
}

func TestMatchingOnSingleEdge(t *testing.T) {
	g := graph.Path(2)
	res, err := sim.Run(g, sim.Config{IDs: ids.Sequential(2), MaxRounds: 10000},
		matching.NewDetFactory())
	if err != nil {
		t.Fatal(err)
	}
	labels := matchLabels(res)
	if labels[0] != 0 || labels[1] != 0 {
		t.Errorf("single edge not matched: %v", labels)
	}
}

func TestDetMatchingRequiresIDs(t *testing.T) {
	// The machine panics in Init; the hardened kernel turns that into a
	// structured ErrNodePanic instead of crashing the caller.
	_, err := sim.Run(graph.Path(3), sim.Config{}, matching.NewDetFactory())
	if !errors.Is(err, sim.ErrNodePanic) {
		t.Fatalf("det matching without IDs: err = %v, want ErrNodePanic", err)
	}
}
