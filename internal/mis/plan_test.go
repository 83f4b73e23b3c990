package mis

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/linial"
	"locality/internal/rng"
	"locality/internal/sim"
)

// TestMachinesShareOnePlan checks that every deterministic MIS machine of a
// run holds the same plan, under both engines, and that the shared plan is
// the one the resolved options alone determine.
func TestMachinesShareOnePlan(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomTree(300, 5, r)
	assignment := ids.Shuffled(g.N(), r)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var mu sync.Mutex
		var ms []*det
		inner := NewDetFactory(DetOptions{})
		f := func() sim.Machine {
			m := inner().(*det)
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
		p := ms[0].plan
		if want := (DetOptions{IDSpace: g.N(), Delta: g.MaxDegree()}); p.opt != want {
			t.Errorf("engine %d: shared plan resolved options %+v, want %+v", engine, p.opt, want)
		}
		if want := linial.Rounds(p.opt.linialOptions()) + 1; p.linSt != want {
			t.Errorf("engine %d: shared plan halts Linial at step %d, want %d", engine, p.linSt, want)
		}
		if got, want := res.Rounds, DetRounds(DetOptions{}, g.N(), g.MaxDegree()); got != want {
			t.Errorf("engine %d: run took %d rounds, DetRounds predicts %d", engine, got, want)
		}
	}
}
