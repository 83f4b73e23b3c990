package harness

import "locality/internal/sim"

// Sweep observability.
//
// The harness itself stays clock-free and metrics-free (the localvet
// nowallclock and obsinert gates): it only *forwards* to an Observer the
// caller attaches via Config.Obs. internal/obs/trace supplies the one
// production implementation (trace.Observer, which turns each committed
// batch into a batch.commit span carrying its round counts); tests attach
// recording observers. The contract mirrors sim.Config.OnRound: an
// observer is strictly fire-and-forget — it must not mutate tables, and a
// sweep's rendered bytes, checkpoints and OnBatch sequence are identical
// with or without one (differentially test-asserted in obs_test.go).

// An Observer receives a sweep's round-level and batch-level telemetry.
// Implementations must be safe for concurrent use: with Config.Workers > 1
// the speculative row workers call SimRound concurrently. BatchDone is
// always called from the driver goroutine, in commit order, and only for
// freshly computed batches (replayed batches fire no telemetry, mirroring
// OnBatch).
type Observer interface {
	// SimRound forwards one simulator round's stats, tagged with the
	// experiment the run belongs to.
	SimRound(experiment string, s sim.RoundStats)
	// BatchDone reports one committed row batch: the total committed so
	// far and the rows this batch appended.
	BatchDone(experiment string, batches, rowsInBatch int)
}

// sim injects the sweep's round-stats hook into a simulator config. Every
// driver wraps its sim.Config literals in it; with no observer attached it
// returns the config untouched, so the disabled path costs nothing and the
// kernel sees a nil hook (keeping runSequential at 0 allocs/round).
func (c Config) sim(t *Table, sc sim.Config) sim.Config {
	if c.Obs == nil {
		return sc
	}
	obs, id := c.Obs, t.ID
	sc.OnRoundStats = func(s sim.RoundStats) { obs.SimRound(id, s) }
	return sc
}
