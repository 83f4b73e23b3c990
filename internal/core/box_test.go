package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// freshCheck wraps a T10 or T11 machine and checks, after every Step, that
// each status it sent equals its statusNow: the boxed status it re-sends
// while nothing changed is never stale. Messages of another type (the
// inner forest machine's, during Phase 2) are the forest test's concern.
type freshCheck struct {
	sim.Machine
	now     func() any
	t       *testing.T
	tally   *freshTally
	last    any
	faulted bool
}

// freshTally counts, over a run, the statuses checked and the steps at
// which the sent status changed or stayed the same, so a test can tell
// that both the re-boxing and the re-sending path ran.
type freshTally struct{ checked, changed, same atomic.Int64 }

func (c *freshCheck) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	send, done := c.Machine.Step(step, recv)
	want := c.now()
	for p, msg := range send {
		if msg == nil || reflect.TypeOf(msg) != reflect.TypeOf(want) {
			continue
		}
		c.tally.checked.Add(1)
		if !reflect.DeepEqual(msg, want) && !c.faulted {
			c.faulted = true // one report per node is enough
			c.t.Errorf("step %d port %d: sent %+v, status is %+v", step, p, msg, want)
		}
		if p == 0 {
			if c.last != nil && reflect.DeepEqual(c.last, msg) {
				c.tally.same.Add(1)
			} else {
				c.tally.changed.Add(1)
			}
			c.last = msg
		}
	}
	return send, done
}

// SleepUntil forwards to the wrapped machine, so the sequential engine
// skips the same steps it skips without the wrapper.
func (c *freshCheck) SleepUntil() (int, bool) { return c.Machine.(sim.Sleeper).SleepUntil() }

// TestStatusBoxNeverStale runs T10 (with and without a bad set) and T11
// (with and without S) on both engines and checks every status sent
// against the machine's state right after the Step that sent it.
func TestStatusBoxNeverStale(t *testing.T) {
	g16 := graph.RandomTree(200, 16, rng.New(10))
	g4 := graph.RandomTree(200, 4, rng.New(9))
	cases := []struct {
		name string
		g    *graph.Graph
		wrap func(t *testing.T, tally *freshTally) sim.Factory
	}{
		{"t10", g16, t10Wrapped(T10Options{Delta: 16})},
		{"t10-slack2", g16, t10Wrapped(T10Options{Delta: 16, PaletteSlack: 2})},
		{"t11-delta8", g16, t11Wrapped(T11Options{Delta: 8})},
		{"t11-delta4", g4, t11Wrapped(T11Options{Delta: 4})},
	}
	for _, c := range cases {
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			tally := &freshTally{}
			cfg := sim.Config{Randomized: true, Seed: 14, Engine: engine, MaxRounds: 1 << 20}
			if _, err := sim.Run(c.g, cfg, c.wrap(t, tally)); err != nil {
				t.Fatalf("%s engine %d: %v", c.name, engine, err)
			}
			if tally.changed.Load() == 0 || tally.same.Load() == 0 {
				t.Errorf("%s engine %d: %d statuses checked, %d changes, %d repeats; want both paths",
					c.name, engine, tally.checked.Load(), tally.changed.Load(), tally.same.Load())
			}
		}
	}
}

func t10Wrapped(opt T10Options) func(*testing.T, *freshTally) sim.Factory {
	return func(t *testing.T, tally *freshTally) sim.Factory {
		f := NewT10Factory(opt)
		return func() sim.Machine {
			m := f().(*t10)
			return &freshCheck{Machine: m, now: func() any { return m.statusNow() }, t: t, tally: tally}
		}
	}
}

func t11Wrapped(opt T11Options) func(*testing.T, *freshTally) sim.Factory {
	return func(t *testing.T, tally *freshTally) sim.Factory {
		f := NewT11Factory(opt)
		return func() sim.Machine {
			m := f().(*t11)
			return &freshCheck{Machine: m, now: func() any { return m.statusNow() }, t: t, tally: tally}
		}
	}
}
