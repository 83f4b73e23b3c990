package sinkless_test

import (
	"math"
	"testing"

	"locality/internal/graph"
	"locality/internal/lcl"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/sinkless"
)

// instance builds a Δ-regular edge-colored instance and its sim inputs.
func instance(t *testing.T, half, d int, seed uint64) (lcl.Instance, []any) {
	t.Helper()
	ecg := graph.RandomRegularBipartite(half, d, rng.New(seed))
	inst := lcl.Instance{G: ecg.Graph, EdgeColors: ecg.Colors, NumEdgeColors: d}
	return inst, inst.NodeInputs()
}

func TestOrientationProducesSinklessOrientation(t *testing.T) {
	for _, tc := range []struct{ half, d int }{{16, 3}, {32, 4}, {64, 5}} {
		inst, inputs := instance(t, tc.half, tc.d, uint64(tc.half))
		res, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: 7, Inputs: inputs},
			sinkless.NewOrientFactory())
		if err != nil {
			t.Fatalf("half=%d d=%d: %v", tc.half, tc.d, err)
		}
		labels := sinkless.OrientLabels(res.Outputs)
		if err := lcl.ValidateOrientation(inst, labels); err != nil {
			t.Fatalf("half=%d d=%d: %v", tc.half, tc.d, err)
		}
	}
}

func TestOrientationConvergesQuickly(t *testing.T) {
	// Sink-fixing should finish far inside its budget: the last sink step
	// should be O(log n)-ish, not the full 16 log n + 32.
	inst, inputs := instance(t, 128, 3, 5)
	res, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: 11, Inputs: inputs},
		sinkless.NewOrientFactory())
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for _, s := range sinkless.LastSinkSteps(res.Outputs) {
		if s > worst {
			worst = s
		}
	}
	budget := 16*mathx.CeilLog2(inst.G.N()+1) + 32
	if worst >= budget {
		t.Errorf("sinks survived to the budget boundary: last=%d budget=%d", worst, budget)
	}
	t.Logf("n=%d: last sink at step %d (budget %d)", inst.G.N(), worst, budget)
}

func TestColoringFromOrientation(t *testing.T) {
	// Lemma 2 direction: a consistent sinkless orientation yields a valid
	// sinkless coloring with zero extra rounds.
	inst, inputs := instance(t, 32, 3, 9)
	inner := sinkless.NewOrientFactory()
	res, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: 13, Inputs: inputs},
		sinkless.NewColoringFromOrientationFactory(inner))
	if err != nil {
		t.Fatal(err)
	}
	colors := sim.IntOutputs(res)
	if err := lcl.SinklessColoring(3).Validate(inst, lcl.IntLabels(colors)); err != nil {
		t.Fatal(err)
	}
	// Round cost identical to the inner machine (zero extra rounds).
	innerRes, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: 13, Inputs: inputs}, inner)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != innerRes.Rounds {
		t.Errorf("transform cost %d rounds, inner %d (Lemma 2 predicts t-1 <= cost <= t)", res.Rounds, innerRes.Rounds)
	}
}

func TestOrientationFromColoring(t *testing.T) {
	// Lemma 1 direction: a valid sinkless coloring yields a valid sinkless
	// orientation. Build the coloring by composing the orientation
	// machine with the Lemma 2 transform, then re-derive an orientation.
	inst, inputs := instance(t, 32, 4, 17)
	coloring := sinkless.NewColoringFromOrientationFactory(
		sinkless.NewOrientFactory())
	res, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: 19, Inputs: inputs},
		sinkless.NewOrientFromColoringFactory(coloring))
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]lcl.OrientationLabel, len(res.Outputs))
	for v, o := range res.Outputs {
		labels[v] = o.(lcl.OrientationLabel)
	}
	if err := lcl.ValidateOrientation(inst, labels); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRoundWorstEdgeFailure(t *testing.T) {
	if got := sinkless.ZeroRoundWorstEdgeFailure(sinkless.Uniform(4)); math.Abs(got-1.0/16) > 1e-12 {
		t.Errorf("uniform worst-edge failure = %v, want 1/16", got)
	}
	skew := []float64{0.7, 0.1, 0.1, 0.1}
	if got := sinkless.ZeroRoundWorstEdgeFailure(skew); math.Abs(got-0.49) > 1e-12 {
		t.Errorf("skewed worst-edge failure = %v, want 0.49", got)
	}
}

func TestZeroRoundMinimaxUniformOptimal(t *testing.T) {
	for _, delta := range []int{3, 4, 5} {
		grid := delta * 4
		val, p := sinkless.ZeroRoundMinimax(delta, grid)
		want := sinkless.ZeroRoundLowerBound(delta)
		if math.Abs(val-want) > 1e-9 {
			t.Errorf("Δ=%d: minimax value %v, want exactly 1/Δ² = %v", delta, val, want)
		}
		for _, pi := range p {
			if math.Abs(pi-1/float64(delta)) > 1e-9 {
				t.Errorf("Δ=%d: best distribution not uniform: %v", delta, p)
			}
		}
	}
}

func TestZeroRoundMachineFailureRate(t *testing.T) {
	// The 0-round uniform strategy must fail per-edge at rate about 1/Δ²
	// and always within a factor of the bound across trials.
	const d = 3
	inst, inputs := instance(t, 16, d, 23)
	edges := inst.G.Edges()
	trials := 400
	violations := 0
	for i := 0; i < trials; i++ {
		res, err := sim.Run(inst.G, sim.Config{Randomized: true, Seed: uint64(i), Inputs: inputs},
			sinkless.NewZeroRoundFactory(sinkless.Uniform(d)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 0 {
			t.Fatalf("0-round machine used %d rounds", res.Rounds)
		}
		colors := sim.IntOutputs(res)
		for e, uv := range edges {
			if colors[uv[0]] == inst.EdgeColors[e] && colors[uv[1]] == inst.EdgeColors[e] {
				violations++
			}
		}
	}
	rate := float64(violations) / float64(trials*len(edges))
	want := sinkless.ZeroRoundLowerBound(d) // 1/9
	if rate < want/2 || rate > want*2 {
		t.Errorf("per-edge forbidden rate %v, want about %v", rate, want)
	}
}

func TestVertexColorsRejectsBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VertexColors accepted a non-VertexInput")
		}
	}()
	sinkless.VertexColors(sim.Env{Input: 42, Degree: 3})
}
