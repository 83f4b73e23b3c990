package core

import (
	"fmt"
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// t10Traffic wraps a T10 machine and records the steps that break its send
// rule: in Phase 1 a vertex sends at every step up to and including the one
// at which its status becomes final, and never after it; at markBad and at
// the harvest step no vertex sends. It also records whether a bad vertex
// was stepped at markBad, where Phase 2 starts.
type t10Traffic struct {
	*t10
	finalAt   int // the Phase 1 step whose status was final; 0 before it
	atMarkBad bool
	badSends  []string
}

func (c *t10Traffic) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	send, done := c.t10.Step(step, recv)
	pl, sent := c.plan, len(send) > 0
	switch {
	case step <= pl.p1End:
		switch {
		case c.finalAt != 0 && sent:
			c.badSends = append(c.badSends, fmt.Sprintf("step %d: sent again after its final status at step %d", step, c.finalAt))
		case c.finalAt == 0 && !sent:
			c.badSends = append(c.badSends, fmt.Sprintf("step %d: silent before its status was final", step))
		case c.finalAt == 0 && (c.color != 0 || c.bad):
			c.finalAt = step
		}
	case step == pl.markBad:
		c.atMarkBad = true
		fallthrough
	case step == pl.p2.end+1:
		if sent {
			c.badSends = append(c.badSends, fmt.Sprintf("step %d: sent at markBad or harvest", step))
		}
	}
	return send, done
}

// TestT10QuietTraffic runs T10 on E3's quick shape with the default and a
// tight Filtering(1) threshold, and on a random tree, on both engines. It
// checks that a final vertex sends its status exactly once, that nothing is
// sent at markBad or at the harvest, and that every bad vertex is stepped
// at markBad, where Phase 2 starts.
func TestT10QuietTraffic(t *testing.T) {
	e3 := graph.CompleteKAry(35, 2)
	tree := graph.RandomTree(200, 16, rng.New(10))
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		opt     T10Options
		wantBad bool
	}{
		{"e3-slack8", e3, T10Options{Delta: 36, PaletteSlack: 8}, false},
		{"e3-slack2", e3, T10Options{Delta: 36, PaletteSlack: 2}, true},
		{"tree-slack2", tree, T10Options{Delta: 16, PaletteSlack: 2}, true},
	} {
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			var mu sync.Mutex
			var checks []*t10Traffic
			f := NewT10Factory(c.opt)
			wrapped := func() sim.Machine {
				w := &t10Traffic{t10: f().(*t10)}
				mu.Lock()
				checks = append(checks, w)
				mu.Unlock()
				return w
			}
			cfg := sim.Config{Randomized: true, Seed: 14, Engine: engine, MaxRounds: 1 << 20}
			if _, err := sim.Run(c.g, cfg, wrapped); err != nil {
				t.Fatal(err)
			}
			final, bad := 0, 0
			for v, w := range checks {
				for _, msg := range w.badSends {
					t.Errorf("%s engine %d node %d: %s", c.name, engine, v, msg)
				}
				if w.finalAt != 0 {
					final++
				}
				if w.bad {
					bad++
					if !w.atMarkBad {
						t.Errorf("%s engine %d node %d: bad, but not stepped at markBad", c.name, engine, v)
					}
				}
			}
			if final < len(checks)/2 || (c.wantBad && bad == 0) {
				t.Errorf("%s engine %d: %d of %d vertices final in Phase 1, %d bad", c.name, engine, final, len(checks), bad)
			}
		}
	}
}
