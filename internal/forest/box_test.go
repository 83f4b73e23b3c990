package forest

import (
	"fmt"
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// freshCheck wraps a forest machine and checks, after every Step that did
// not halt, that the status its neighbours hold is its statusNow: the
// status it sent, or at a quiet step the one it sent last. It also records
// the steps that break the send rule: a live vertex sends before every
// Linial step, and at any other step exactly when its status changed.
// The embedded machine's SleepUntil is the wrapper's, so the sequential
// engine skips the steps it sleeps through; those count as quiet, since
// the Sleeper contract makes each of them a Step that sends nothing.
type freshCheck struct {
	*machine
	t        *testing.T
	sends    int // steps at which the machine broadcast
	changes  int // of those, steps at which the status sent changed
	quiet    int // live steps at which it sent nothing, slept ones included
	slept    int // of those, steps the engine skipped
	resends  int // unchanged statuses sent because a Linial step follows
	badSends []string
	last     sim.Message
	stepped  int // the last step at which Step was called
	faulted  bool
}

func (c *freshCheck) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	skipped := step - c.stepped - 1
	c.stepped = step
	c.quiet += skipped
	c.slept += skipped
	before := c.statusNow()
	send, done := c.machine.Step(step, recv)
	if done {
		return send, done
	}
	want := c.statusNow()
	for p, msg := range send {
		if got := msg.(status); got != want && !c.faulted {
			c.faulted = true // one report per node is enough
			c.t.Errorf("step %d port %d: sent %+v, status is %+v", step, p, got, want)
		}
	}
	if len(send) == 0 {
		c.quiet++
		if (c.last == nil || c.last.(status) != want) && !c.faulted {
			c.faulted = true
			c.t.Errorf("step %d: quiet, but neighbours hold %+v and the status is %+v", step, c.last, want)
		}
	} else {
		c.sends++
		if send[0] != c.last {
			c.changes++
			c.last = send[0]
		}
	}
	changed := step == 1 || want != before
	sent := len(send) > 0
	if c.plan.linialStep(step + 1) {
		if !sent {
			c.badSends = append(c.badSends, fmt.Sprintf("step %d: silent before a Linial step", step))
		} else if !changed {
			c.resends++
		}
	} else if sent != changed {
		c.badSends = append(c.badSends, fmt.Sprintf("step %d: sent %v, status changed %v", step, sent, changed))
	}
	return send, done
}

// runChecked runs the forest coloring with palette q on a random tree under
// engine, every machine wrapped in a freshCheck, and returns the wrappers.
func runChecked(t *testing.T, engine sim.Engine, q int) []*freshCheck {
	t.Helper()
	r := rng.New(6)
	g := graph.RandomTree(300, 6, r)
	assignment := ids.Shuffled(g.N(), r)
	var mu sync.Mutex
	var checks []*freshCheck
	inner := NewFactory(Options{Q: q})
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
	return checks
}

// TestStatusBoxNeverStale runs the forest coloring on both engines and
// checks every status sent, and the status neighbours hold at every quiet
// step, against the machine's state right after that Step.
func TestStatusBoxNeverStale(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		checks := runChecked(t, engine, 4)
		// Both paths must run: a status that changed at every step would
		// leave the quiet path untested, and one that never changed the
		// re-boxing path.
		quiet, changes := 0, 0
		for _, c := range checks {
			quiet, changes = quiet+c.quiet, changes+c.changes
		}
		if changes <= len(checks) || quiet == 0 {
			t.Errorf("engine %d: %d quiet steps, %d status changes over %d nodes; want both paths", engine, quiet, changes, len(checks))
		}
	}
}

// TestQuietTraffic checks the send rule on both engines: at peel, settle,
// H-sweep and final-sweep steps a vertex sends only a changed status, and
// before every Linial step every live vertex sends, changed or not. A
// Linial step seldom leaves a colour as it was; with Q = 3 on this tree a
// few vertices resend an unchanged status, which the rule must cover. On
// the sequential engine most quiet steps are slept through, not stepped.
func TestQuietTraffic(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		checks := runChecked(t, engine, 3)
		linial := 0
		for s := 1; s <= checks[0].plan.Rounds(); s++ {
			if checks[0].plan.linialStep(s) {
				linial++
			}
		}
		if linial == 0 {
			t.Fatal("the plan has no Linial step")
		}
		sends, quiet, slept, resends := 0, 0, 0, 0
		for v, c := range checks {
			sends, quiet, slept, resends = sends+c.sends, quiet+c.quiet, slept+c.slept, resends+c.resends
			for _, msg := range c.badSends {
				t.Errorf("engine %d node %d: %s", engine, v, msg)
			}
		}
		// Every vertex sends at the hello, the settle step and each Linial
		// step but the last; the sweeps must leave most steps quiet.
		if least := len(checks) * (linial + 1); sends < least || quiet < sends || resends == 0 {
			t.Errorf("engine %d: %d sends (at least %d expected), %d quiet steps, %d unchanged resends",
				engine, sends, least, quiet, resends)
		}
		if (engine == sim.EngineSequential) != (slept > 0) {
			t.Errorf("engine %d: %d steps slept through", engine, slept)
		}
	}
}
