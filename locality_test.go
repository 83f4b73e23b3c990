package locality_test

import (
	"testing"

	"locality"
)

// TestFacadeQuickstart exercises the public API end to end: generate, run
// both model variants, verify, and check the round accounting matches the
// predicted budgets.
func TestFacadeQuickstart(t *testing.T) {
	const (
		n     = 512
		delta = 8
	)
	r := locality.NewRand(9)
	g := locality.RandomTree(n, delta, r)

	randRes, err := locality.Run(g,
		locality.RunConfig{Randomized: true, Seed: 5, MaxRounds: 1 << 22},
		locality.NewTheorem11Factory(locality.Theorem11Options{Delta: delta}))
	if err != nil {
		t.Fatal(err)
	}
	colors := locality.ColoringOutputs(randRes.Outputs)
	if err := locality.ValidateColoring(g, delta, colors); err != nil {
		t.Fatalf("randomized coloring invalid: %v", err)
	}
	if want := locality.Theorem11Rounds(n, locality.Theorem11Options{Delta: delta}); randRes.Rounds != want {
		t.Errorf("rand rounds %d, predicted %d", randRes.Rounds, want)
	}

	detRes, err := locality.Run(g,
		locality.RunConfig{IDs: locality.ShuffledIDs(n, r), MaxRounds: 1 << 22},
		locality.NewTreeColoringFactory(locality.TreeColoringOptions{Q: delta}))
	if err != nil {
		t.Fatal(err)
	}
	detColors := make([]int, n)
	for v, o := range detRes.Outputs {
		detColors[v] = o.(int)
	}
	if err := locality.ValidateColoring(g, delta, detColors); err != nil {
		t.Fatalf("deterministic coloring invalid: %v", err)
	}
}

// TestFacadeLowerBoundEngine exercises the neighborhood-graph surface.
func TestFacadeLowerBoundEngine(t *testing.T) {
	res := locality.RingAlgorithmExists(0, 4, 3, 1<<20)
	if !res.Decided || res.Colorable {
		t.Error("0-round 3-coloring with 4 IDs must be proved impossible")
	}
	ng := locality.BuildNeighborhoodGraph(0, 4)
	if ng.G.N() != 4 || ng.G.M() != 6 {
		t.Errorf("B_0(4) malformed: n=%d m=%d", ng.G.N(), ng.G.M())
	}
}

// TestFacadeMISAndVerify exercises MIS + distributed verification.
func TestFacadeMISAndVerify(t *testing.T) {
	r := locality.NewRand(11)
	g := locality.RandomBoundedDegree(200, 400, 6, r)
	res, err := locality.Run(g, locality.RunConfig{Randomized: true, Seed: 3},
		locality.NewLubyMISFactory())
	if err != nil {
		t.Fatal(err)
	}
	inSet := make([]bool, g.N())
	for v, o := range res.Outputs {
		inSet[v] = o.(bool)
	}
	if err := locality.ValidateMIS(g, inSet); err != nil {
		t.Fatal(err)
	}
	labels := make([]any, g.N())
	for v, b := range inSet {
		labels[v] = b
	}
	ok, rounds, err := locality.VerifyDistributed(locality.MISProblem(), locality.LCLInstance{G: g}, labels)
	if !ok || rounds != 1 {
		t.Errorf("distributed MIS verification: ok=%v rounds=%d err=%v", ok, rounds, err)
	}
}

// TestFacadeExperimentLookup checks the harness surface.
func TestFacadeExperimentLookup(t *testing.T) {
	driver, ok := locality.ExperimentByID("E4")
	if !ok {
		t.Fatal("E4 not found")
	}
	tbl := driver(locality.ExperimentConfig{Quick: true, Seed: 1})
	if tbl.ID != "E4" || len(tbl.Rows) == 0 {
		t.Errorf("E4 table malformed: %+v", tbl)
	}
}
