package core

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// recordMachines wraps f so the machines it creates can be inspected after
// a run; the concurrent engine calls the factory from many goroutines.
func recordMachines(f sim.Factory) (sim.Factory, *[]sim.Machine) {
	var mu sync.Mutex
	var ms []sim.Machine
	return func() sim.Machine {
		m := f()
		mu.Lock()
		ms = append(ms, m)
		mu.Unlock()
		return m
	}, &ms
}

// TestMachinesShareOnePlan checks that every machine of a run reads the same
// plan, built once by the factory, on both engines.
func TestMachinesShareOnePlan(t *testing.T) {
	g := graph.RandomTree(300, 16, rng.New(2))
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		cfg := sim.Config{Randomized: true, Seed: 5, Engine: engine, MaxRounds: 1 << 20}

		f10, ms10 := recordMachines(NewT10Factory(T10Options{Delta: 16}))
		if _, err := sim.Run(g, cfg, f10); err != nil {
			t.Fatal(err)
		}
		f11, ms11 := recordMachines(NewT11Factory(T11Options{Delta: 16}))
		if _, err := sim.Run(g, cfg, f11); err != nil {
			t.Fatal(err)
		}
		if len(*ms10) != g.N() || len(*ms11) != g.N() {
			t.Fatalf("recorded %d T10 and %d T11 machines, want %d each", len(*ms10), len(*ms11), g.N())
		}
		p10, p11 := (*ms10)[0].(*t10).plan, (*ms11)[0].(*t11).plan
		for v := range *ms10 {
			if got := (*ms10)[v].(*t10).plan; got != p10 {
				t.Fatalf("engine %d: T10 machine %d holds plan %p, machine 0 holds %p", engine, v, got, p10)
			}
			if got := (*ms11)[v].(*t11).plan; got != p11 {
				t.Fatalf("engine %d: T11 machine %d holds plan %p, machine 0 holds %p", engine, v, got, p11)
			}
		}
	}
}
