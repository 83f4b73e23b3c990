package sim_test

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/sim"
)

// ringBench is an allocation-free benchmark machine: every step it forwards a
// pre-boxed token on every port, halting after a fixed number of steps. The
// send slice is built once in Init and reused, so steady-state rounds do no
// allocation at all — any allocs/round measured over it belong to the kernel.
type ringBench struct {
	send []sim.Message
	stop int
}

// ringToken is boxed once so Step never converts an int to an interface.
var ringToken sim.Message = "tok"

func (m *ringBench) Init(env sim.Env) {
	m.send = make([]sim.Message, env.Degree)
	for i := range m.send {
		m.send[i] = ringToken
	}
}

func (m *ringBench) Step(round int, recv []sim.Message) ([]sim.Message, bool) {
	return m.send, round >= m.stop
}

func (m *ringBench) Output() any { return nil }

func ringFactory(stop int) sim.Factory {
	return func() sim.Machine { return &ringBench{stop: stop} }
}

func ringRun(b testing.TB, g sim.Topology, arena *sim.Arena, rounds int) {
	res, err := sim.Run(g, sim.Config{Arena: arena, MaxRounds: rounds + 8}, ringFactory(rounds))
	if err != nil {
		b.Fatalf("ring run: %v", err)
	}
	if res.Rounds != rounds-1 {
		b.Fatalf("ring run: %d rounds, want %d", res.Rounds, rounds-1)
	}
}

// TestSequentialZeroAllocsPerRound is the hot-path acceptance criterion:
// with an arena, runSequential allocates nothing per round in steady state.
// Measured differentially — the per-run cost (machines, Result, HaltRound)
// is identical for a 64-round and a 1064-round run, so any per-round
// allocation would show up 1000-fold in the difference.
func TestSequentialZeroAllocsPerRound(t *testing.T) {
	g := graph.Ring(64)
	arena := &sim.Arena{}
	ringRun(t, g, arena, 8) // prime the arena so growth is not measured

	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { ringRun(t, g, arena, rounds) })
	}
	short, long := allocs(64), allocs(1064)
	perRound := (long - short) / 1000
	if perRound > 0.01 {
		t.Errorf("sequential engine allocates %.3f allocs/round in steady state (short run %.0f, long run %.0f), want 0",
			perRound, short, long)
	}
}

// TestArenaReuseMatchesFresh pins the arena's correctness contract: reusing
// one arena across runs — including across engines and across graph sizes —
// changes no observable result.
func TestArenaReuseMatchesFresh(t *testing.T) {
	arena := &sim.Arena{}
	for _, n := range []int{16, 48, 8} { // shrinking size exercises stale-buffer clearing
		g := graph.Ring(n)
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			fresh, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 64}, ringFactory(16))
			if err != nil {
				t.Fatalf("n=%d engine=%d fresh: %v", n, engine, err)
			}
			reused, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 64, Arena: arena}, ringFactory(16))
			if err != nil {
				t.Fatalf("n=%d engine=%d arena: %v", n, engine, err)
			}
			if fresh.Rounds != reused.Rounds || fresh.MessagesSent != reused.MessagesSent {
				t.Errorf("n=%d engine=%d: arena run (rounds=%d, msgs=%d) differs from fresh (rounds=%d, msgs=%d)",
					n, engine, reused.Rounds, reused.MessagesSent, fresh.Rounds, fresh.MessagesSent)
			}
		}
	}
}

// BenchmarkSequentialRing reports the kernel's per-run cost with and without
// buffer reuse; -benchmem makes the allocs/op delta visible. The gated
// trajectory is the per-experiment allocation budget in the module root's
// bench_test.go.
func BenchmarkSequentialRing(b *testing.B) {
	g := graph.Ring(1024)
	b.Run("arena", func(b *testing.B) {
		arena := &sim.Arena{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ringRun(b, g, arena, 64)
		}
	})
	b.Run("noarena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ringRun(b, g, nil, 64)
		}
	})
}

// BenchmarkConcurrentRing is the goroutine-per-node engine on the same
// workload (smaller ring: the channel protocol dominates).
func BenchmarkConcurrentRing(b *testing.B) {
	g := graph.Ring(128)
	b.Run("arena", func(b *testing.B) {
		arena := &sim.Arena{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(g, sim.Config{Engine: sim.EngineConcurrent, MaxRounds: 128, Arena: arena}, ringFactory(32))
			if err != nil || res.Rounds != 31 {
				b.Fatalf("run: rounds=%v err=%v", res, err)
			}
		}
	})
	b.Run("noarena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(g, sim.Config{Engine: sim.EngineConcurrent, MaxRounds: 128}, ringFactory(32))
			if err != nil || res.Rounds != 31 {
				b.Fatalf("run: rounds=%v err=%v", res, err)
			}
		}
	})
}
