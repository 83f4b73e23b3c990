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

// TestReductionLeavesLayerColoring checks the coloring the arb-Linial and
// H-sweep steps leave for the final sweep: colors 0..A, proper on every
// edge inside a layer. The random tree mixes layers. On the path every
// vertex peels in the first round, so every edge is inside a layer, and
// its ID space is small enough that the Linial schedule is empty: the
// sweep's first class holds the largest ID alone, and it must avoid its
// same-layer neighbors (IDs 1 and 2, its children, not parents).
func TestReductionLeavesLayerColoring(t *testing.T) {
	r := rng.New(7)
	first := append(ids.Assignment{1, 20}, ids.Sequential(20)[1:19]...)
	cases := []struct {
		g   *graph.Graph
		ids ids.Assignment
	}{
		{graph.Path(20), first},
		{graph.RandomTree(3000, 6, r), ids.Shuffled(3000, r)},
	}
	opt := Options{Q: 3}
	for _, c := range cases {
		g := c.g
		var ms []*machine
		inner := NewFactory(opt)
		f := func() sim.Machine {
			m := inner().(*machine)
			ms = append(ms, m)
			return m
		}
		if _, err := sim.Run(g, sim.Config{IDs: c.ids, MaxRounds: 100000}, f); err != nil {
			t.Fatal(err)
		}
		byNode := make([]*machine, g.N())
		for _, m := range ms {
			byNode[m.env.Node] = m
		}
		a := opt.Resolve(g.N()).A
		for v, m := range byNode {
			if m.failed || m.hcolor < 0 || m.hcolor > a {
				t.Fatalf("n=%d: vertex %d failed=%v with color %d, want one of 0..%d", g.N(), v, m.failed, m.hcolor, a)
			}
			for _, h := range g.Ports(v) {
				if u := byNode[h.To]; u.layer == m.layer && u.hcolor == m.hcolor {
					t.Fatalf("n=%d: vertices %d and %d share layer %d and color %d", g.N(), v, h.To, m.layer, m.hcolor)
				}
			}
		}
	}
}
