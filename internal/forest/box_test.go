package forest

import (
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// freshCheck wraps a forest machine and checks, after every Step, that
// each status it sent equals its statusNow: the boxed status it re-sends
// while nothing changed is never stale.
type freshCheck struct {
	*machine
	t       *testing.T
	sends   int // steps at which the machine broadcast
	changes int // of those, steps at which the status sent changed
	last    sim.Message
	faulted bool
}

func (c *freshCheck) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	send, done := c.machine.Step(step, recv)
	want := c.statusNow()
	for p, msg := range send {
		if got := msg.(status); got != want && !c.faulted {
			c.faulted = true // one report per node is enough
			c.t.Errorf("step %d port %d: sent %+v, status is %+v", step, p, got, want)
		}
	}
	if len(send) > 0 {
		c.sends++
		if send[0] != c.last {
			c.changes++
			c.last = send[0]
		}
	}
	return send, done
}

// TestStatusBoxNeverStale runs the forest coloring on both engines and
// checks every status sent against the machine's state right after the
// Step that sent it.
func TestStatusBoxNeverStale(t *testing.T) {
	r := rng.New(6)
	g := graph.RandomTree(300, 6, r)
	assignment := ids.Shuffled(g.N(), r)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var mu sync.Mutex
		var checks []*freshCheck
		inner := NewFactory(Options{Q: 4})
		f := func() sim.Machine {
			c := &freshCheck{machine: inner().(*machine), t: t}
			mu.Lock()
			checks = append(checks, c)
			mu.Unlock()
			return c
		}
		if _, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine, MaxRounds: 100000}, f); err != nil {
			t.Fatal(err)
		}
		// Both paths must run: a status that changed at every step would
		// leave the re-send path untested, and one that never changed the
		// re-boxing path.
		sends, changes := 0, 0
		for _, c := range checks {
			sends, changes = sends+c.sends, changes+c.changes
		}
		if changes <= len(checks) || changes == sends {
			t.Errorf("engine %d: %d sends, %d status changes over %d nodes; want both paths", engine, sends, changes, len(checks))
		}
	}
}
