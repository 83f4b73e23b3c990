package cluster

import (
	"context"
	"sync/atomic"
	"time"
)

// probeThreshold is the consecutive probe failures that flip a shard
// unhealthy.
const probeThreshold = 3

// Prober watches one shard's /healthz. It probes every Interval while the
// shard answers; failures are re-probed on the deterministic-jitter
// Backoff schedule (attempt n of a failure streak waits Delay(n)), and
// probeThreshold (3) consecutive failures flip the shard unhealthy.
// One success heals it: membership is static, so a restarted shard simply
// resumes service.
type Prober struct {
	// Client probes the shard (Health; no internal retries).
	Client *Client
	// Interval is the healthy-cadence between probes; New sets it from
	// Options.ProbeInterval.
	Interval time.Duration
	// Backoff paces re-probes during a failure streak.
	Backoff Backoff
	// OnChange, when non-nil, observes health transitions (metrics,
	// events). Called from the prober goroutine.
	OnChange func(shard string, healthy bool)

	// down inverts the verdict so the zero value is healthy: dispatch may
	// consult Healthy before the probe goroutine has run at all, and a
	// never-probed shard must look alive (probers start optimistic).
	down  atomic.Bool
	fails int
}

// Healthy reports the shard's current probe verdict. Probers start
// optimistic: a shard is healthy until probeThreshold probes fail.
func (p *Prober) Healthy() bool { return !p.down.Load() }

// MarkUnhealthy force-flips the shard unhealthy — the coordinator calls it
// when job traffic (not probing) proves the shard gone, so dispatch
// decisions and probe verdicts stay coherent.
func (p *Prober) MarkUnhealthy() {
	if p.down.CompareAndSwap(false, true) && p.OnChange != nil {
		p.OnChange(p.Client.Shard.Name, false)
	}
}

// Run probes until ctx dies. Call it on its own goroutine.
func (p *Prober) Run(ctx context.Context) {
	for {
		wait := p.Interval
		if err := p.Client.Health(ctx); err != nil {
			p.fails++
			if p.fails >= probeThreshold {
				p.MarkUnhealthy()
			}
			// Failure streak: back off deterministically instead of
			// hammering a struggling shard at full cadence.
			if d := p.Backoff.Delay(p.fails); d > 0 {
				wait = d
			}
		} else {
			p.fails = 0
			if p.down.CompareAndSwap(true, false) && p.OnChange != nil {
				p.OnChange(p.Client.Shard.Name, true)
			}
		}
		if sleepCtx(ctx, wait) != nil || ctx.Err() != nil {
			return
		}
	}
}
