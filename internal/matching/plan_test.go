package matching

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// TestMachinesShareOnePlan checks that every deterministic matching machine
// of a run holds the one edge-coloring plan the factory's memo built (and
// hands to the edge-coloring machine it embeds), under both engines.
func TestMachinesShareOnePlan(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomTree(200, 5, r)
	assignment := ids.Shuffled(g.N(), r)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var mu sync.Mutex
		var ms []*detMatch
		inner := NewDetFactory()
		f := func() sim.Machine {
			m := inner().(*detMatch)
			mu.Lock()
			ms = append(ms, m)
			mu.Unlock()
			return m
		}
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 10000}, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != g.N() {
			t.Fatalf("recorded %d machines, want %d", len(ms), g.N())
		}
		for v, m := range ms {
			if m.plan != ms[0].plan {
				t.Fatalf("engine %d: machine %d holds plan %p, machine 0 holds %p", engine, v, m.plan, ms[0].plan)
			}
		}
		if got, want := res.Rounds, DetRounds(g.N(), g.MaxDegree()); got != want {
			t.Errorf("engine %d: run took %d rounds, DetRounds predicts %d", engine, got, want)
		}
	}
}
