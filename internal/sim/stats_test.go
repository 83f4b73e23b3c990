package sim_test

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/mis"
	"locality/internal/sim"
)

// TestRoundStatsEngineEquivalence: both engines deliver identical RoundStats
// sequences for identical runs — the telemetry extension of the
// engine-equivalence guarantee.
func TestRoundStatsEngineEquivalence(t *testing.T) {
	g := graph.Ring(48)
	collect := func(engine sim.Engine) ([]sim.RoundStats, *sim.Result) {
		var stats []sim.RoundStats
		res, err := sim.Run(g, sim.Config{
			Engine:       engine,
			Randomized:   true,
			Seed:         11,
			OnRoundStats: func(s sim.RoundStats) { stats = append(stats, s) },
		}, mis.NewLubyFactory())
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		return stats, res
	}
	seqStats, seqRes := collect(sim.EngineSequential)
	conStats, conRes := collect(sim.EngineConcurrent)

	if len(seqStats) == 0 {
		t.Fatal("sequential engine delivered no round stats")
	}
	if len(seqStats) != len(conStats) {
		t.Fatalf("stats length: sequential %d, concurrent %d", len(seqStats), len(conStats))
	}
	for i := range seqStats {
		if seqStats[i] != conStats[i] {
			t.Errorf("round %d: sequential %+v != concurrent %+v", i+1, seqStats[i], conStats[i])
		}
	}
	if seqRes.Rounds != conRes.Rounds || seqRes.MessagesSent != conRes.MessagesSent {
		t.Errorf("results diverge: sequential (rounds=%d msgs=%d) vs concurrent (rounds=%d msgs=%d)",
			seqRes.Rounds, seqRes.MessagesSent, conRes.Rounds, conRes.MessagesSent)
	}
}

// TestRoundStatsInternalConsistency pins the per-field semantics against the
// run's own Result: rounds are 1..haltStep, per-round messages sum to
// MessagesSent, Active never rises, Halted never falls and ends at n.
func TestRoundStatsInternalConsistency(t *testing.T) {
	g := graph.Ring(32)
	n := g.N()
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var stats []sim.RoundStats
		res, err := sim.Run(g, sim.Config{
			Engine:       engine,
			OnRoundStats: func(s sim.RoundStats) { stats = append(stats, s) },
		}, ringFactory(16))
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		if len(stats) != res.Rounds+1 {
			t.Fatalf("engine %d: %d stats for a %d-round run (halting step = rounds+1)",
				engine, len(stats), res.Rounds)
		}
		var msgs, bytes int64
		for i, s := range stats {
			if s.Round != i+1 {
				t.Errorf("engine %d: stats[%d].Round = %d, want %d", engine, i, s.Round, i+1)
			}
			msgs += s.Messages
			bytes += s.Bytes
			if i > 0 && s.Active > stats[i-1].Active {
				t.Errorf("engine %d: Active rose %d -> %d at round %d",
					engine, stats[i-1].Active, s.Active, s.Round)
			}
			if i > 0 && s.Halted < stats[i-1].Halted {
				t.Errorf("engine %d: Halted fell %d -> %d at round %d",
					engine, stats[i-1].Halted, s.Halted, s.Round)
			}
		}
		if msgs != res.MessagesSent {
			t.Errorf("engine %d: per-round messages sum to %d, Result.MessagesSent = %d",
				engine, msgs, res.MessagesSent)
		}
		// The ring machine sends the 3-byte "tok" on every port each step.
		if want := msgs * 3; bytes != want {
			t.Errorf("engine %d: bytes = %d, want %d", engine, bytes, want)
		}
		last := stats[len(stats)-1]
		if last.Halted != n {
			t.Errorf("engine %d: final Halted = %d, want %d", engine, last.Halted, n)
		}
		if stats[0].Active != n {
			t.Errorf("engine %d: first Active = %d, want %d", engine, stats[0].Active, n)
		}
	}
}

// TestRoundStatsInert: attaching the hook changes nothing observable about
// the run — the sim half of the observability contract's byte-identity
// guarantee.
func TestRoundStatsInert(t *testing.T) {
	g := graph.Ring(40)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		run := func(hook func(sim.RoundStats)) *sim.Result {
			res, err := sim.Run(g, sim.Config{
				Engine: engine, Randomized: true, Seed: 3, OnRoundStats: hook,
			}, mis.NewLubyFactory())
			if err != nil {
				t.Fatalf("engine %d: %v", engine, err)
			}
			return res
		}
		off := run(nil)
		on := run(func(sim.RoundStats) {})
		if off.Rounds != on.Rounds || off.MessagesSent != on.MessagesSent {
			t.Errorf("engine %d: hook changed the run: off (rounds=%d msgs=%d) vs on (rounds=%d msgs=%d)",
				engine, off.Rounds, off.MessagesSent, on.Rounds, on.MessagesSent)
		}
		for v := range off.HaltRound {
			if off.HaltRound[v] != on.HaltRound[v] {
				t.Fatalf("engine %d: HaltRound[%d] differs: %d vs %d",
					engine, v, off.HaltRound[v], on.HaltRound[v])
			}
		}
	}
}

// TestSequentialZeroAllocsPerRoundWithStats extends the hot-path acceptance
// criterion to an armed telemetry hook: a no-op OnRoundStats sink must keep
// runSequential at 0 allocs/round (the accounting is plain integer
// arithmetic and RoundStats is passed by value).
func TestSequentialZeroAllocsPerRoundWithStats(t *testing.T) {
	g := graph.Ring(64)
	arena := &sim.Arena{}
	sink := func(sim.RoundStats) {}
	run := func(rounds int) {
		res, err := sim.Run(g, sim.Config{Arena: arena, MaxRounds: rounds + 8, OnRoundStats: sink},
			ringFactory(rounds))
		if err != nil || res.Rounds != rounds-1 {
			t.Fatalf("ring run: rounds=%v err=%v", res, err)
		}
	}
	run(8) // prime the arena so growth is not measured

	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() { run(rounds) })
	}
	short, long := allocs(64), allocs(1064)
	perRound := (long - short) / 1000
	if perRound > 0.01 {
		t.Errorf("sequential engine with stats hook allocates %.3f allocs/round (short %.0f, long %.0f), want 0",
			perRound, short, long)
	}
}

// TestMessageBytes pins the telemetry sizing table.
func TestMessageBytes(t *testing.T) {
	cases := []struct {
		m    sim.Message
		want int64
	}{
		{"tok", 3},
		{[]byte{1, 2, 3, 4}, 4},
		{true, 1},
		{int8(1), 1},
		{uint8(1), 1},
		{int16(1), 2},
		{uint16(1), 2},
		{int32(1), 4},
		{uint32(1), 4},
		{float32(1), 4},
		{int(1), 8},
		{int64(1), 8},
		{uint(1), 8},
		{uint64(1), 8},
		{float64(1), 8},
		{struct{ X int }{1}, 0}, // structured payloads are not reflected over
		{nil, 0},
	}
	for _, c := range cases {
		if got := sim.MessageBytes(c.m); got != c.want {
			t.Errorf("MessageBytes(%T %v) = %d, want %d", c.m, c.m, got, c.want)
		}
	}
}
