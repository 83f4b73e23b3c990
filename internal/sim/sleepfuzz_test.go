package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// mix is a splitmix64 finalizer over (seed, node, step): the per-step coin
// of a fuzzSleeper, the same on both engines.
func mix(seed uint64, node, step int) uint64 {
	z := seed ^ uint64(node)<<32 ^ uint64(step)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fuzzSleeper follows a random schedule of work, naps, far sleeps, sleeps
// that end at a step shared by many nodes, halts (often right at a wake
// step) and one fault at a chosen (step, node). Each sleep is in discard
// mode or in mail mode at random. In discard mode Step is a no-op whatever
// arrives; in mail mode it is a no-op when the inbox is all nil, and mail
// makes it work as at any other step, which may keep the old wake step
// (the engine's queued entry serves again) or pick a new one (leaving that
// entry stale), as the Sleeper contract allows.
type fuzzSleeper struct {
	seed      uint64
	lastStep  int // every node halts by this step
	faultStep int
	faultNode int
	overSend  bool // the fault is an over-degree send, not a panic

	node   int
	deg    int
	until  int  // Steps before it are no-ops
	onMail bool // ... unless their inbox holds mail
	sum    int
	send   []sim.Message
}

func (m *fuzzSleeper) Init(env sim.Env) {
	m.node, m.deg = env.Node, env.Degree // Node only picks the fault site
}

func (m *fuzzSleeper) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if step < m.until && !(m.onMail && hasMail(recv)) {
		return nil, false
	}
	if step == m.faultStep && m.node == m.faultNode {
		if m.overSend {
			return make([]sim.Message, m.deg+1), false
		}
		panic(fmt.Sprintf("fault at step %d", step))
	}
	for _, msg := range recv {
		if msg != nil {
			m.sum = m.sum*31 + msg.(int) // port order matters
		}
	}
	h := mix(m.seed, m.node, step)
	m.send = m.send[:0]
	for p := 0; p < m.deg; p++ {
		if h>>(8+p%32)&1 == 0 {
			m.send = append(m.send, nil)
		} else {
			m.send = append(m.send, 1000*step+p)
		}
	}
	if step >= m.lastStep || h%8 == 0 || (step == m.until && h%3 == 0) {
		return m.send, true
	}
	prev := m.until
	switch h >> 3 % 5 {
	case 0: // a short nap
		m.until = step + 2 + int(h>>40%3)
	case 1: // far ahead
		m.until = step + 20 + int(h>>40%40)
	case 2: // a wake step many nodes share
		m.until = (step/8 + 2) * 8
	}
	if m.until != prev {
		m.onMail = h>>50&1 == 1
	}
	return m.send, false
}

func (m *fuzzSleeper) SleepUntil() (int, bool) { return m.until, m.onMail }

// hasMail reports whether any message arrived.
func hasMail(recv []sim.Message) bool {
	for _, msg := range recv {
		if msg != nil {
			return true
		}
	}
	return false
}

func (m *fuzzSleeper) Output() any { return m.sum }

// FuzzSleepSchedule: on random trees and rings, machines that sleep in
// either mode, wake on schedule or on mail, and halt on random schedules
// (and one of which may fault) give the same
// Result, the same RoundStats sequence and the same first error on the
// sequential engine, fresh or on a reused arena, as on the concurrent
// engine, which steps every live node.
func FuzzSleepSchedule(f *testing.F) {
	f.Add(uint64(1), 12, false, 0, 0, false, 0)
	f.Add(uint64(2), 30, true, 9, 4, false, 0)
	f.Add(uint64(3), 25, false, 15, 7, true, 0)
	f.Add(uint64(4), 40, false, 0, 0, false, 12)
	f.Add(uint64(5), 1, true, 3, 0, false, 0)
	f.Add(uint64(6), 150, false, 30, 140, false, 0)
	f.Add(uint64(7), 128, true, 0, 0, false, 40)
	f.Fuzz(func(t *testing.T, seed uint64, n int, ring bool, faultStep, faultNode int, overSend bool, maxRounds int) {
		// Up to three bitset words; the concurrent engine runs one
		// goroutine per node.
		n = 1 + modulo(n, 160)
		var g *graph.Graph
		if ring && n >= 3 {
			g = graph.Ring(n)
		} else {
			g = graph.RandomTree(n, 2+int(seed%4), rng.New(seed))
		}
		factory := func() sim.Machine {
			return &fuzzSleeper{seed: seed, lastStep: 90, faultStep: modulo(faultStep, 100),
				faultNode: modulo(faultNode, n), overSend: overSend}
		}
		cfg := sim.Config{MaxRounds: modulo(maxRounds, 120)}

		run := func(engine sim.Engine, arena *sim.Arena) (*sim.Result, []sim.RoundStats, error) {
			var stats []sim.RoundStats
			cfg := cfg
			cfg.Engine, cfg.Arena = engine, arena
			cfg.OnRoundStats = func(s sim.RoundStats) { stats = append(stats, s) }
			res, err := sim.Run(g, cfg, factory)
			return res, stats, err
		}
		wantRes, wantStats, wantErr := run(sim.EngineConcurrent, nil)
		arena := &sim.Arena{}
		if _, err := sim.Run(graph.Ring(3+modulo(int(seed), 200)), sim.Config{Arena: arena, MaxRounds: 5},
			func() sim.Machine { return &fuzzSleeper{seed: ^seed, lastStep: 90, faultStep: -1} }); err != nil && !errors.Is(err, sim.ErrMaxRounds) {
			t.Fatal(err)
		}
		for _, a := range []*sim.Arena{nil, arena} {
			res, stats, err := run(sim.EngineSequential, a)
			if msg := sameError(err, wantErr); msg != "" {
				t.Fatalf("arena %v: %s", a != nil, msg)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("arena %v: results diverge:\nsequential %+v\nconcurrent %+v", a != nil, res, wantRes)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("arena %v: round stats diverge:\nsequential %+v\nconcurrent %+v", a != nil, stats, wantStats)
			}
		}
	})
}

// sameError returns why the sequential engine's error got differs from the
// concurrent engine's want, or "": both nil, the same (node, round, value)
// *NodeError of the same kind, or the same round-budget error.
func sameError(got, want error) string {
	var gne, wne *sim.NodeError
	switch {
	case got == nil && want == nil:
		return ""
	case errors.As(got, &gne) && errors.As(want, &wne):
		if gne.Node != wne.Node || gne.Round != wne.Round || gne.Value != wne.Value ||
			errors.Is(gne, sim.ErrNodePanic) != errors.Is(wne, sim.ErrNodePanic) {
			return fmt.Sprintf("faults differ: sequential %v, concurrent %v", got, want)
		}
		return ""
	case errors.Is(got, sim.ErrMaxRounds) && errors.Is(want, sim.ErrMaxRounds):
		if got.Error() != want.Error() {
			return fmt.Sprintf("round-budget errors differ: sequential %v, concurrent %v", got, want)
		}
		return ""
	}
	return fmt.Sprintf("errors differ: sequential %v, concurrent %v", got, want)
}

// modulo maps x into [0, m) for any int, unlike the % operator on negatives.
func modulo(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
