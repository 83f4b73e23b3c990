package core

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// t10SizeBoundOne is the Theorem 10 plan for n vertices with its Phase 2
// planned for a component size bound of 1, laid out as newT10Plan lays out
// the default bound.
func t10SizeBoundOne(n int, opt T10Options) t10Plan {
	p := newT10Plan(n, opt)
	p.p2 = newPhase2Plan(n, p.reserve, 1, p.markBad)
	p.total = p.p2.end + 2
	return p
}

// TestPhase2HarvestFailure runs Theorems 10 and 11 with a component size
// bound of 1. Phase 2 then peels for one round only, so a member with more
// than A = 2 forest neighbors (both 3-color their components here) is never
// peeled and its component gets no color; PaletteSlack 1 makes every vertex
// T10 leaves uncolored after its first iteration bad. Every member the forest
// coloring leaves without a color must fail at the harvest step: halt
// there, with Color 0 and Phase 0.
func TestPhase2HarvestFailure(t *testing.T) {
	g9 := graph.RandomTree(600, 9, rng.New(31))
	g4 := graph.RandomTree(600, 4, rng.New(32))
	t10p := t10SizeBoundOne(g9.N(), T10Options{Delta: 9, PaletteSlack: 1})
	t10plans := sim.NewPlanMemo(func(int, int) t10Plan { return t10p })
	t11opt := T11Options{Delta: 4, SizeBound: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		f    sim.Factory
		p2   phase2Plan
		// result returns whether a vertex was a Phase 2 member, and its
		// color and phase.
		result func(out any) (member bool, color, phase int)
	}{
		{"t10", g9, func() sim.Machine { return &t10{plans: t10plans} }, t10p.p2, func(out any) (bool, int, int) {
			r := out.(T10Result)
			return r.Bad, r.Color, r.Phase
		}},
		{"t11", g4, NewT11Factory(t11opt), newT11Plan(g4.N(), t11opt).p2, func(out any) (bool, int, int) {
			r := out.(T11Result)
			return r.InS, r.Color, r.Phase
		}},
	}
	for _, c := range cases {
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			cfg := sim.Config{Randomized: true, Seed: 3, Engine: engine, MaxRounds: 1 << 20}
			res, err := sim.Run(c.g, cfg, c.f)
			if err != nil {
				t.Fatalf("%s engine %d: %v", c.name, engine, err)
			}
			failed := 0
			for v, out := range res.Outputs {
				member, color, phase := c.result(out)
				if !member || color != 0 {
					continue
				}
				failed++
				if phase != 0 {
					t.Errorf("%s engine %d: vertex %d has color 0 and phase %d", c.name, engine, v, phase)
				}
				// Halting at step end+1 uses end rounds.
				if res.HaltRound[v] != c.p2.end {
					t.Errorf("%s engine %d: uncolored member %d halted after %d rounds, want %d (the harvest step)",
						c.name, engine, v, res.HaltRound[v], c.p2.end)
				}
			}
			if failed == 0 {
				t.Errorf("%s engine %d: no member failed, so the harvest-failure path did not run", c.name, engine)
			}
		}
	}
}
