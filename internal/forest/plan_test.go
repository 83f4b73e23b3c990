package forest

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// TestMachinesShareOnePlan checks that every machine of a run reads the same
// *Plan, built once by the factory, on both engines.
func TestMachinesShareOnePlan(t *testing.T) {
	r := rng.New(4)
	g := graph.RandomTree(300, 6, r)
	assignment := ids.Shuffled(g.N(), r)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var mu sync.Mutex
		var ms []*machine
		inner := NewFactory(Options{Q: 4})
		f := func() sim.Machine {
			m := inner().(*machine)
			mu.Lock()
			ms = append(ms, m)
			mu.Unlock()
			return m
		}
		if _, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 100000}, f); err != nil {
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
		if want := NewPlan(Options{Q: 4}.Resolve(g.N())).Rounds(); ms[0].plan.Rounds() != want {
			t.Errorf("engine %d: shared plan has %d rounds, want %d", engine, ms[0].plan.Rounds(), want)
		}
	}
}
