package sim_test

// Cancellation-race suite: RunContext cancelled at seeded random rounds —
// synchronously from the round boundary and asynchronously from a racing
// goroutine — must always tear down goroutine-leak-free and always return a
// structured, errors.Is-classifiable cancellation or deadline error. Run
// with -race, these tests are the kernel's defense against cancellation
// paths that are only safe on the happy schedule.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// settleGoroutines waits for the goroutine count to fall back to the
// baseline (+2 slack for runtime helpers).
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCancelAtSeededRoundsSync cancels from inside the OnRoundStats hook — the
// earliest moment a round is known complete — at a seeded random round per
// trial, on both engines. Determinism of the schedule keeps failures
// reproducible by seed.
func TestCancelAtSeededRoundsSync(t *testing.T) {
	g := graph.RandomTree(48, 4, rng.New(31))
	r := rng.New(97)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		for trial := 0; trial < 8; trial++ {
			target := 1 + int(r.Uint64()%25)
			ctx, cancel := context.WithCancel(context.Background())
			before := runtime.NumGoroutine()
			cfg := sim.Config{
				Engine:    engine,
				MaxRounds: 1 << 20,
				OnRoundStats: func(s sim.RoundStats) {
					if s.Round == target {
						cancel()
					}
				},
			}
			_, err := sim.RunContext(ctx, g, cfg, func() sim.Machine { return neverHalt() })
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("engine %v trial %d (cancel at round %d): error = %v, want wrapped context.Canceled",
					engine, trial, target, err)
			}
			settleGoroutines(t, before)
		}
	}
}

// TestCancelAtSeededRoundsAsync races the cancel from another goroutine,
// triggered when the run crosses a seeded random round. The run may finish
// a few more rounds before noticing — the invariants are only that the
// error is structured and nothing leaks, every time.
func TestCancelAtSeededRoundsAsync(t *testing.T) {
	g := graph.RandomTree(48, 4, rng.New(31))
	r := rng.New(98)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		for trial := 0; trial < 8; trial++ {
			target := 1 + int(r.Uint64()%25)
			ctx, cancel := context.WithCancel(context.Background())
			before := runtime.NumGoroutine()
			crossed := make(chan struct{})
			var once atomic.Bool
			go func() {
				<-crossed
				cancel()
			}()
			cfg := sim.Config{
				Engine:    engine,
				MaxRounds: 1 << 20,
				OnRoundStats: func(s sim.RoundStats) {
					if s.Round >= target && once.CompareAndSwap(false, true) {
						close(crossed)
					}
				},
			}
			_, err := sim.RunContext(ctx, g, cfg, func() sim.Machine { return neverHalt() })
			if once.CompareAndSwap(false, true) {
				close(crossed) // run somehow ended early; unblock the canceller
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("engine %v trial %d (cancel after round %d): error = %v, want wrapped context.Canceled",
					engine, trial, target, err)
			}
			settleGoroutines(t, before)
			cancel()
		}
	}
}

// TestCancelDeadlineClassification: cancellation by deadline classifies as
// DeadlineExceeded (not bare Canceled), through the same wrapped error
// shape, on both engines.
func TestCancelDeadlineClassification(t *testing.T) {
	g := graph.Ring(16)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		before := runtime.NumGoroutine()
		_, err := sim.RunContext(ctx, g, sim.Config{Engine: engine, MaxRounds: 1 << 30},
			func() sim.Machine { return neverHalt() })
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine %v: error = %v, want wrapped context.DeadlineExceeded", engine, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: deadline expiry also matches context.Canceled: %v", engine, err)
		}
		settleGoroutines(t, before)
	}
}

// TestOnRoundObservesEveryStep pins the per-step contract of OnRoundStats
// that supervision and these tests rely on: called once per completed
// step, in order, with identical sequences on both engines, and a run's
// result is unchanged by observing it.
func TestOnRoundObservesEveryStep(t *testing.T) {
	g := graph.RandomTree(24, 3, rng.New(17))
	halting := func() sim.Machine {
		return &sim.FuncMachine{
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				return nil, round >= 6
			},
		}
	}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		var seen []int
		cfg := sim.Config{Engine: engine, MaxRounds: 64,
			OnRoundStats: func(s sim.RoundStats) { seen = append(seen, s.Round) }}
		res, err := sim.Run(g, cfg, halting)
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		plain, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 64}, halting)
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if res.Rounds != plain.Rounds {
			t.Errorf("engine %v: OnRoundStats changed the result: %d vs %d rounds", engine, res.Rounds, plain.Rounds)
		}
		if len(seen) == 0 {
			t.Fatalf("engine %v: OnRoundStats never fired", engine)
		}
		for i, round := range seen {
			if round != i+1 {
				t.Fatalf("engine %v: OnRoundStats sequence %v not 1..n", engine, seen)
			}
		}
		if seen[len(seen)-1] != res.Rounds+1 {
			t.Errorf("engine %v: last observed step %d, halting step should be Rounds+1 = %d",
				engine, seen[len(seen)-1], res.Rounds+1)
		}
	}
}
