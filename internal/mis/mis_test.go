package mis_test

import (
	"errors"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/mis"
	"locality/internal/rng"
	"locality/internal/sim"
)

func boolOutputs(res *sim.Result) []bool {
	out := make([]bool, len(res.Outputs))
	for v, o := range res.Outputs {
		out[v] = o.(bool)
	}
	return out
}

func TestLubyProducesMIS(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = graph.RandomTree(200, 6, r)
		case 1:
			g = graph.Ring(97)
		case 2:
			g = graph.RandomBoundedDegree(150, 300, 8, r)
		default:
			g = graph.Star(40)
		}
		res, err := sim.Run(g, sim.Config{Randomized: true, Seed: uint64(trial)},
			mis.NewLubyFactory())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inSet := boolOutputs(res)
		if err := lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(inSet)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLubyRoundsLogarithmic(t *testing.T) {
	r := rng.New(5)
	var rounds []int
	for _, n := range []int{64, 512, 4096} {
		g := graph.RandomBoundedDegree(n, 2*n, 10, r)
		res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 7},
			mis.NewLubyFactory())
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, res.Rounds)
	}
	// O(log n): 64x size increase should far less than 64x the rounds.
	if rounds[2] > 6*rounds[0]+20 {
		t.Errorf("Luby round growth not logarithmic: %v", rounds)
	}
}

func TestDetMIS(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 6; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.RandomTree(200, 5, r)
		case 1:
			g = graph.Ring(64)
		default:
			g = graph.RandomBoundedDegree(120, 240, 6, r)
		}
		n := g.N()
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(n, r), MaxRounds: 10000},
			mis.NewDetFactory())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inSet := boolOutputs(res)
		if err := lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(inSet)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := mis.DetRounds(n, g.MaxDegree())
		if res.Rounds != want {
			t.Errorf("trial %d: rounds %d, predicted %d", trial, res.Rounds, want)
		}
	}
}

func TestDetMISDeterministic(t *testing.T) {
	// Same IDs, same graph -> identical output, different engines.
	r := rng.New(33)
	g := graph.RandomTree(80, 4, r)
	assignment := ids.Shuffled(80, r)
	var prev []bool
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 10000},
			mis.NewDetFactory())
		if err != nil {
			t.Fatal(err)
		}
		cur := boolOutputs(res)
		if prev != nil {
			for v := range cur {
				if cur[v] != prev[v] {
					t.Fatalf("engines disagree at vertex %d", v)
				}
			}
		}
		prev = cur
	}
}

func TestRandVsDetRoundComparison(t *testing.T) {
	// The paper's Section I story: on bounded-degree graphs both are fast,
	// but det rounds include the log* + O(Δ log Δ) coloring cost. Sanity:
	// both complete well under MaxRounds and produce valid MISes; record
	// the comparison (no strict assertion on which wins at small n).
	r := rng.New(41)
	g := graph.RandomBoundedDegree(500, 1000, 8, r)
	det, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(500, r), MaxRounds: 10000},
		mis.NewDetFactory())
	if err != nil {
		t.Fatal(err)
	}
	luby, err := sim.Run(g, sim.Config{Randomized: true, Seed: 5},
		mis.NewLubyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if err := lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(boolOutputs(det))); err != nil {
		t.Fatal(err)
	}
	if err := lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(boolOutputs(luby))); err != nil {
		t.Fatal(err)
	}
	t.Logf("n=500 Δ=8: det=%d rounds, luby=%d rounds", det.Rounds, luby.Rounds)
}

func TestLubyRequiresRandomness(t *testing.T) {
	// The machine panics in Init; the hardened kernel turns that into a
	// structured ErrNodePanic instead of crashing the caller.
	_, err := sim.Run(graph.Path(4), sim.Config{}, mis.NewLubyFactory())
	if !errors.Is(err, sim.ErrNodePanic) {
		t.Fatalf("Luby without randomness: err = %v, want ErrNodePanic", err)
	}
}
