package linial

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// TestMachinesShareOnePlan checks that every machine of a factory holds the
// plan NewFactory built, under both engines, and that the shared plan is the
// one Options alone determine.
func TestMachinesShareOnePlan(t *testing.T) {
	r := rng.New(4)
	g := graph.RandomTree(300, 6, r)
	assignment := ids.Shuffled(g.N(), r)
	opt := Options{InitialPalette: g.N(), Delta: g.MaxDegree(), Target: g.MaxDegree() + 1, KW: true}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var mu sync.Mutex
		var ms []*Machine
		inner := NewFactory(opt)
		f := func() sim.Machine {
			m := inner().(*Machine)
			mu.Lock()
			ms = append(ms, m)
			mu.Unlock()
			return m
		}
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine}, f)
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
		if got, want := res.Rounds, Rounds(opt); got != want {
			t.Errorf("engine %d: run took %d rounds, shared plan predicts %d", engine, got, want)
		}
		if red := ms[0].plan; len(red.kwAt) != red.kw.Rounds() {
			t.Errorf("engine %d: shared reduction lists %d KW steps, KW plan has %d rounds",
				engine, len(red.kwAt), red.kw.Rounds())
		}
	}
}
