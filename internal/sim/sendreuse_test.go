package sim_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// overwriter keeps one send buffer for its whole run and rewrites it at
// every Step, so an engine that read a send slice after the node's next
// Step began would deliver the wrong values. Each port carries a value
// derived from (ID, step, port); a step-dependent subset of ports is left
// nil, and every other step the slice is cut one entry short while the
// buffer still holds a value past its end. The output is a digest of
// everything the node received, port by port, nil included.
type overwriter struct {
	env    sim.Env
	send   []sim.Message
	fresh  bool // allocate a new send slice at every step (the reference)
	stop   int
	digest uint64
}

func (m *overwriter) Init(env sim.Env) { m.env = env }

func (m *overwriter) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	for p, msg := range recv {
		m.digest = m.digest*1099511628211 + uint64(p+1)
		switch x := msg.(type) {
		case nil:
		case uint64:
			m.digest ^= x
		default:
			m.digest ^= 0xbad // mail this machine never sent
		}
	}
	if step >= m.stop {
		return nil, true
	}
	if m.fresh || m.send == nil {
		m.send = make([]sim.Message, m.env.Degree)
	}
	for p := range m.send {
		if (step+p)%3 == 0 {
			m.send[p] = nil
			continue
		}
		m.send[p] = m.env.ID<<32 | uint64(step)<<8 | uint64(p)
	}
	if len(m.send) > 0 && (step+int(m.env.ID))%2 == 0 {
		return m.send[:len(m.send)-1], false
	}
	return m.send, false
}

func (m *overwriter) Output() any { return m.digest }

func overwriterFactory(stop int, fresh bool) sim.Factory {
	return func() sim.Machine { return &overwriter{stop: stop, fresh: fresh} }
}

// TestSendSliceReuse pins the Machine no-retain rule: a machine that
// overwrites its previous send slice in its next Step gets the same Result
// on both engines as one that allocates a fresh slice every step.
func TestSendSliceReuse(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Ring(9),
		graph.RandomTree(40, 4, rng.New(5)),
		graph.RandomBoundedDegree(30, 50, 5, rng.New(6)),
	} {
		cfg := sim.Config{IDs: ids.Sequential(g.N()), MaxRounds: 64}
		want, err := sim.Run(g, cfg, overwriterFactory(12, true))
		if err != nil {
			t.Fatalf("n=%d fresh slices: %v", g.N(), err)
		}
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			cfg.Engine = engine
			got, err := sim.Run(g, cfg, overwriterFactory(12, false))
			if err != nil {
				t.Fatalf("n=%d engine=%d reused slice: %v", g.N(), engine, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d engine=%d: reusing the send slice changed the Result:\n got %+v\nwant %+v",
					g.N(), engine, got, want)
			}
		}
	}
}

// TestArenaReuseAfterCancelWithMailInFlight cancels a run through
// OnRoundStats while every port carries mail, so the aborted run leaves
// messages in the arena that the per-step sparse clearing never removed.
// A later run on that arena, on the same graph and on a smaller one, must
// still give the fresh-arena Result: buffers are cleared on acquire.
func TestArenaReuseAfterCancelWithMailInFlight(t *testing.T) {
	big := graph.RandomTree(48, 4, rng.New(31))
	for _, g := range []*graph.Graph{big, graph.RandomTree(20, 3, rng.New(32))} {
		arena := &sim.Arena{}
		ctx, cancel := context.WithCancel(context.Background())
		var inFlight int64
		_, err := sim.RunContext(ctx, big, sim.Config{
			Arena:     arena,
			MaxRounds: 1 << 10,
			OnRoundStats: func(s sim.RoundStats) {
				if s.Round == 5 {
					inFlight = s.Messages
					cancel()
				}
			},
		}, ringFactory(1<<9))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("aborted run: error = %v, want context.Canceled", err)
		}
		if inFlight != int64(2*big.M()) {
			t.Fatalf("aborted run: %d messages in flight at the cancel, want %d", inFlight, 2*big.M())
		}

		cfg := sim.Config{IDs: ids.Sequential(g.N()), MaxRounds: 64}
		want, err := sim.Run(g, cfg, overwriterFactory(10, false))
		if err != nil {
			t.Fatalf("n=%d fresh arena: %v", g.N(), err)
		}
		cfg.Arena = arena
		got, err := sim.Run(g, cfg, overwriterFactory(10, false))
		if err != nil {
			t.Fatalf("n=%d reused arena: %v", g.N(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: the arena of a cancelled run changed the Result:\n got %+v\nwant %+v", g.N(), got, want)
		}
	}
}
