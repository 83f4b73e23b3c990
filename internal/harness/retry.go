package harness

import (
	"context"
	"fmt"
)

// RetryResult records a Retry run: how many attempts the failure budget paid
// for and whether any of them succeeded.
type RetryResult struct {
	// Attempts is the number of attempts consumed, including the successful
	// one (so a first-try success reports 1).
	Attempts int
	// Success reports whether some attempt returned nil.
	Success bool
	// LastErr is the error of the final attempt (nil iff Success). When the
	// retry loop is abandoned between attempts by context cancellation,
	// LastErr wraps the context cause instead.
	LastErr error
}

// SuccessRate returns the fraction of attempts that succeeded — 1/Attempts
// on success (Retry stops at the first success), 0 otherwise.
func (r RetryResult) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	if r.Success {
		return 1 / float64(r.Attempts)
	}
	return 0
}

// Retry is the failure-budget discipline for Monte-Carlo algorithms: run is
// invoked with attempt = 0, 1, ... until it returns nil or the budget is
// exhausted. The callback is responsible for deriving a fresh seed from the
// attempt number, so a retried run explores new randomness instead of
// deterministically repeating its failure.
func Retry(budget int, run func(attempt int) error) RetryResult {
	return RetryContext(context.Background(), budget, run)
}

// RetryContext is Retry with cooperative cancellation: it never starts an
// attempt on a dead context, so cancellation between attempts abandons the
// remaining budget. An abandoned loop reports the context cause as LastErr;
// attempts already made keep their count. The run callback receives the
// same attempt numbering as Retry and owns per-attempt seed derivation.
// Attempts follow each other at once: the harness reads no clock.
func RetryContext(ctx context.Context, budget int, run func(attempt int) error) RetryResult {
	var res RetryResult
	for attempt := 0; attempt < budget; attempt++ {
		if ctx.Err() != nil {
			res.LastErr = fmt.Errorf("harness: retry abandoned between attempts: %w", context.Cause(ctx))
			return res
		}
		res.Attempts++
		res.LastErr = run(attempt)
		if res.LastErr == nil {
			res.Success = true
			break
		}
	}
	return res
}
