package cluster

import (
	"time"

	"locality/internal/rng"
)

// Backoff is the deterministic wait policy between a shard client's retry
// attempts and a prober's failure-streak re-probes: delays double from
// Base, are scaled by a seeded jitter factor in [0.5, 1.5), and are capped
// at Max. It is pure data plus arithmetic — computing a Delay never
// consults the clock, so the schedule for a given Seed is reproducible
// (same seed ⇒ same schedule, attempt by attempt). The zero value waits not
// at all, but New gives a coordinator's shards a waiting default.
type Backoff struct {
	// Base is the nominal delay before the second attempt (attempt 1); 0
	// disables waiting entirely.
	Base time.Duration
	// Max caps every delay after jitter; 0 means uncapped.
	Max time.Duration
	// Seed drives the jitter stream. Jitter is derived per attempt with the
	// library's SplitMix64 mixer: fresh randomness per attempt,
	// reproducible across runs.
	Seed uint64
}

// Delay returns the wait before the given attempt (attempt 0 is the first
// try and never waits). The nominal delay Base·2^(attempt-1) is scaled by a
// deterministic jitter factor in [0.5, 1.5) drawn from (Seed, attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt <= 0 || b.Base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 32 {
		shift = 32
	}
	d := b.Base << shift
	if d <= 0 || (b.Max > 0 && d > b.Max) {
		d = b.Max
		if d == 0 {
			d = b.Base
		}
	}
	h := rng.Mix64(b.Seed, uint64(attempt))
	factor := 0.5 + float64(h>>11)/(1<<53) // [0.5, 1.5)
	d = time.Duration(float64(d) * factor)
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	return d
}
