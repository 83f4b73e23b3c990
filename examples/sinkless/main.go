// Sinkless: the Brandt et al. problem pair behind the paper's Theorem 4.
// Generates a Δ-regular edge-colored graph, solves sinkless orientation in
// RandLOCAL, derives a sinkless coloring from it (the Lemma 2 reduction),
// re-derives an orientation from the coloring (Lemma 1), and shows the
// exact 0-round failure floor 1/Δ².
package main

import (
	"fmt"
	"log"

	"locality"
	"locality/internal/lcl"
	"locality/internal/sim"
	"locality/internal/sinkless"
)

func main() {
	const (
		half = 256
		d    = 3
	)
	r := locality.NewRand(7)
	ecg := locality.RandomRegularBipartite(half, d, r)
	inst := lcl.Instance{G: ecg.Graph, EdgeColors: ecg.Colors, NumEdgeColors: d}
	inputs := inst.NodeInputs()
	fmt.Printf("instance: %d-regular bipartite, n=%d, proper %d-edge-colored\n", d, ecg.N(), d)

	// Randomized sinkless orientation.
	res, err := sim.Run(ecg.Graph, sim.Config{Randomized: true, Seed: 11, Inputs: inputs},
		locality.NewSinklessOrientationFactory())
	if err != nil {
		log.Fatal(err)
	}
	if err := lcl.ValidateOrientation(inst, sinkless.OrientLabels(res.Outputs)); err != nil {
		log.Fatalf("orientation invalid: %v", err)
	}
	worst := 0
	for _, s := range sinkless.LastSinkSteps(res.Outputs) {
		if s > worst {
			worst = s
		}
	}
	fmt.Printf("sinkless orientation: valid; last sink died at step %d (budget %d rounds)\n",
		worst, res.Rounds)

	// Lemma 2 direction: coloring from orientation, zero extra rounds.
	cres, err := sim.Run(ecg.Graph, sim.Config{Randomized: true, Seed: 11, Inputs: inputs},
		locality.NewColoringFromOrientationFactory(
			locality.NewSinklessOrientationFactory()))
	if err != nil {
		log.Fatal(err)
	}
	colors := sim.IntOutputs(cres)
	if err := lcl.SinklessColoring(d).Validate(inst, lcl.IntLabels(colors)); err != nil {
		log.Fatalf("derived coloring invalid: %v", err)
	}
	fmt.Printf("Lemma 2 reduction: valid %d-sinkless coloring in %d rounds (same as orientation)\n",
		d, cres.Rounds)

	// Theorem 4 base case, exactly.
	val, p := locality.ZeroRoundMinimax(d, 4*d)
	fmt.Printf("Theorem 4 base case: best 0-round strategy %v fails on the worst edge with "+
		"probability %.4f = 1/Δ² = %.4f\n", p, val, locality.ZeroRoundLowerBound(d))
}
