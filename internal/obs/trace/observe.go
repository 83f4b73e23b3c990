package trace

import (
	"strconv"
	"sync/atomic"
	"time"

	"locality/internal/sim"
)

// Sweep tracing.
//
// The harness stays clock-free (the localvet nowallclock gate), so batch
// timing lives here, on the tracer side of the harness.Observer seam. Each
// freshly committed batch becomes one complete "batch.commit" span under
// the observer's parent: the span covers the interval since the previous
// commit (or since the observer was attached, for the first batch), which
// is exactly the time the sweep spent computing that batch's rows, and it
// carries the simulator rounds, messages and bytes completed in the same
// interval. Replayed batches fire no telemetry (mirroring OnBatch), so a
// resumed sweep's trace shows only the work it actually did.
//
// Observer satisfies harness.Observer structurally; this package imports
// sim for the round stats but never the harness.

// An Observer turns one sweep's telemetry into batch.commit spans.
type Observer struct {
	tr     *Tracer
	parent SpanContext
	// last is the previous batch boundary. BatchDone is always called
	// from the driver goroutine in commit order (the Observer contract),
	// so no lock is needed.
	last time.Time

	// Round counters since the previous commit. SimRound runs
	// concurrently on the row workers of a Workers > 1 sweep.
	rounds, messages, bytes atomic.Int64
}

// NewObserver starts a sweep observer whose batch spans parent to parent.
// The parent must already be on disk (DESIGN.md §14): batch spans outlive
// nothing they reference, so a killed sweep leaves no orphans. Callers
// attach the observer only when tr is non-nil — a typed-nil *Observer in
// harness.Config.Obs would arm the simulator's round hook for nothing.
func NewObserver(tr *Tracer, parent SpanContext) *Observer {
	return &Observer{tr: tr, parent: parent, last: now()}
}

// SimRound accumulates one simulator round into the next commit's counts.
func (o *Observer) SimRound(_ string, s sim.RoundStats) {
	o.rounds.Add(1)
	o.messages.Add(s.Messages)
	o.bytes.Add(s.Bytes)
}

// BatchDone emits the batch.commit span for one committed row batch.
func (o *Observer) BatchDone(experiment string, batches, rowsInBatch int) {
	t := now()
	o.tr.Emit(o.parent, "batch.commit", o.last.UnixNano(), t.UnixNano(),
		"experiment", experiment,
		"batch", strconv.Itoa(batches),
		"rows", strconv.Itoa(rowsInBatch),
		"rounds", strconv.FormatInt(o.rounds.Swap(0), 10),
		"messages", strconv.FormatInt(o.messages.Swap(0), 10),
		"bytes", strconv.FormatInt(o.bytes.Swap(0), 10),
	)
	o.last = t
}
