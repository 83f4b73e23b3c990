package forest_test

import (
	"reflect"
	"testing"

	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// stepCounter wraps a machine, counts its Step calls into *steps, and
// forwards the wrapped machine's sleep mode, so the sequential engine
// skips the steps it would skip without the wrapper.
type stepCounter struct {
	sim.Machine
	steps *int
}

func (c *stepCounter) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	*c.steps++
	return c.Machine.Step(step, recv)
}

func (c *stepCounter) SleepUntil() (int, bool) { return c.Machine.(sim.Sleeper).SleepUntil() }

// e1Trees returns E1's quick-scale det instances at seed 2016: random trees
// of maximum degree 8 on 256, 1024 and 4096 vertices with shuffled IDs,
// drawn from one stream in the order E1 draws them.
func e1Trees() ([]*graph.Graph, []ids.Assignment) {
	r := rng.New(2016 + 1)
	var gs []*graph.Graph
	var as []ids.Assignment
	for _, n := range []int{256, 1024, 4096} {
		gs = append(gs, graph.RandomTree(n, 8, r))
		as = append(as, ids.Shuffled(n, r))
	}
	return gs, as
}

// TestSleepMatchesConcurrentOnE1 runs the forest coloring of E1's quick
// det rows on both engines. The sequential engine sleeps every vertex
// between its slots and wakes it on mail; the concurrent engine steps
// every live vertex. Outputs, halt rounds, message counts and every
// step's RoundStats must be equal, and at n = 4096 the sequential engine
// must make at most 50,000 Steps (stepping every vertex at every step
// makes 1,462,272).
func TestSleepMatchesConcurrentOnE1(t *testing.T) {
	gs, as := e1Trees()
	for i, g := range gs {
		var runs [2]*sim.Result
		var stats [2][]sim.RoundStats
		var steps [2]int // counted on the sequential engine only
		for e, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			f := forest.NewFactory(forest.Options{Q: 8})
			if engine == sim.EngineSequential {
				inner, count := f, &steps[e]
				f = func() sim.Machine { return &stepCounter{Machine: inner(), steps: count} }
			}
			cfg := sim.Config{IDs: as[i], Engine: engine, MaxRounds: 1 << 22,
				OnRoundStats: func(s sim.RoundStats) { stats[e] = append(stats[e], s) }}
			res, err := sim.Run(g, cfg, f)
			if err != nil {
				t.Fatalf("n=%d engine %d: %v", g.N(), engine, err)
			}
			runs[e] = res
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("n=%d: results differ: rounds %d vs %d, messages %d vs %d",
				g.N(), runs[0].Rounds, runs[1].Rounds, runs[0].MessagesSent, runs[1].MessagesSent)
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("n=%d: round stats differ", g.N())
		}
		t.Logf("n=%d: %d rounds, %d messages, %d sequential Steps", g.N(), runs[0].Rounds, runs[0].MessagesSent, steps[0])
		if g.N() == 4096 && steps[0] > 50_000 {
			t.Errorf("n=4096: the sequential engine made %d forest Steps, want at most 50,000", steps[0])
		}
	}
}
