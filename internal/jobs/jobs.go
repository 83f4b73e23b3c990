// Package jobs is the supervision layer over the experiment harness: a
// bounded-queue worker pool that runs experiment and ablation sweeps as
// cancellable, deadline-bounded, checkpoint-resumable jobs.
//
// The contract, layer by layer:
//
//   - Backpressure is explicit. Submit never blocks and never buffers
//     unboundedly: a full queue (or a draining pool) sheds the submission
//     with a structured *ShedError stating the reason and the queue state.
//
//   - Failure is isolated and structured. A panicking experiment driver
//     takes down its attempt, not the worker and never the process: the
//     recovered value and stack are wrapped in a *JobError that classifies
//     with errors.Is against the harness and sim sentinels.
//
//   - Deadlines and cancellation are cooperative. A job's context (its
//     Spec.Timeout, a Cancel call, or pool shutdown) cancels the sweep
//     between row batches via harness.Config.Ctx, and would cancel
//     individual runs at round granularity via sim.RunContext; either way
//     the job lands in a terminal state with its progress checkpointed.
//
//   - Progress survives. Each completed row batch is checkpointed (in
//     memory, and to CheckpointDir when configured, written atomically); a
//     retried attempt or a resubmitted job resumes from the last completed
//     batch and — because the harness replays recorded batches verbatim —
//     produces byte-identical final output.
//
//   - Retry is disciplined. Transient failures are retried under
//     harness.RetryContext with deterministic seeded-jitter backoff;
//     cancellation and deadline errors are terminal, never retried.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"locality/internal/harness"
	"locality/internal/sim"
)

// Spec describes one job: which sweep to run, at what scale, under what
// seed and deadline.
type Spec struct {
	// Experiment is the table ID ("E1" ... "E13", "A1" ... "A3").
	Experiment string `json:"experiment"`
	// Quick selects the reduced instance sizes used by tests.
	Quick bool `json:"quick,omitempty"`
	// Seed drives all of the sweep's randomness; with Experiment and Quick
	// it is the job's determinism identity.
	Seed uint64 `json:"seed"`
	// Timeout, when positive, bounds the job's total running time (queue
	// wait excluded). Expiry fails the job with a deadline classification.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Workers, when > 1, computes the sweep's rows in parallel (see
	// harness.Config.Workers). It changes only wall-clock time, never
	// output: it is deliberately NOT part of the determinism identity, so
	// checkpoints resume across worker counts.
	Workers int `json:"workers,omitempty"`
	// Rows, when non-nil, runs the job as one shard of a cluster sweep: only
	// the selected row batches are computed, the job's product is its sparse
	// checkpoint (Pool.Checkpoint) rather than a rendered table, and Output
	// stays empty on success. Rows IS part of the determinism identity —
	// different shards record different batches — so checkpoints are keyed
	// by it.
	Rows *RowSpec `json:"rows,omitempty"`
}

// State is a job's lifecycle position. Terminal states are Succeeded,
// Failed and Cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Job is a point-in-time snapshot of a job, safe to retain.
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// Tenant is the admitting tenant's public ID (never the raw API key).
	Tenant string `json:"tenant,omitempty"`
	// State is the lifecycle position at snapshot time.
	State State `json:"state"`
	// Attempts counts retry attempts started (1 on an untroubled run).
	Attempts int `json:"attempts"`
	// BatchesDone counts freshly computed row batches checkpointed so far.
	BatchesDone int `json:"batches_done"`
	// Error and ErrorKind describe the terminal failure: ErrorKind is the
	// errors.Is classification ("panic", "cancelled", "deadline", ...),
	// Error the rendered message. Empty on success.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Output is the rendered result table; set only on success.
	Output string `json:"output,omitempty"`
}

// Sentinels. All job-layer errors classify with errors.Is.
var (
	// ErrJobPanic marks a recovered experiment panic (see JobError).
	ErrJobPanic = errors.New("jobs: experiment panicked")
	// ErrQueueFull is the shed reason when the submission queue is at
	// capacity.
	ErrQueueFull = errors.New("jobs: submission queue full")
	// ErrDraining is the shed reason once shutdown has begun.
	ErrDraining = errors.New("jobs: pool draining")
	// ErrUnknownExperiment rejects a Spec naming no registered driver.
	ErrUnknownExperiment = errors.New("jobs: unknown experiment")
	// ErrUnknownJob is returned by Cancel for an ID the pool never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// ShedError is a rejected submission: load shedding made explicit. It wraps
// the reason sentinel (ErrQueueFull, ErrDraining, ErrUnknownExperiment, or a
// *tenant.LimitError for per-tenant quota rejections) and records the queue
// state at rejection time, so clients can derive a proportional backoff.
type ShedError struct {
	// Reason is the sentinel explaining the rejection.
	Reason error
	// QueueLen and QueueCap are the submission queue's occupancy and
	// capacity when the submission was shed.
	QueueLen, QueueCap int
	// Workers is the pool's concurrency — the queue's drain rate
	// denominator, for occupancy-proportional Retry-After estimates.
	Workers int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("jobs: submission shed (%v; queue %d/%d)", e.Reason, e.QueueLen, e.QueueCap)
}

// Unwrap exposes the reason to errors.Is.
func (e *ShedError) Unwrap() error { return e.Reason }

// JobError wraps a panic recovered from an experiment driver. It unwraps to
// ErrJobPanic and — when the panicked value was itself an error, as with the
// harness's *SweepError — to that cause, so errors.Is classification
// (cancellation, deadline, sim sentinels) flows through the recovery.
type JobError struct {
	// ID and Experiment identify the job whose attempt panicked.
	ID, Experiment string
	// Value is the recovered panic value, verbatim.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
	// Cause is Value when it was an error, else nil.
	Cause error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("jobs: %s (%s) panicked: %v", e.ID, e.Experiment, e.Value)
}

// Unwrap exposes the panic sentinel and, when present, the error cause.
func (e *JobError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrJobPanic, e.Cause}
	}
	return []error{ErrJobPanic}
}

// classify buckets a terminal job error for the snapshot's ErrorKind. Order
// matters: a cancelled-by-deadline sweep matches both the interruption
// sentinel and DeadlineExceeded, and the deadline is the truer story.
func classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled), errors.Is(err, harness.ErrSweepInterrupted):
		return "cancelled"
	case errors.Is(err, sim.ErrNodePanic), errors.Is(err, sim.ErrOverSend):
		return "node-fault"
	case errors.Is(err, sim.ErrMaxRounds):
		return "max-rounds"
	case errors.Is(err, ErrJobPanic):
		return "panic"
	default:
		return "error"
	}
}

// cancelled reports whether a terminal error means the job was called off
// (as opposed to failing on its own).
func cancelled(err error) bool {
	return (errors.Is(err, context.Canceled) || errors.Is(err, harness.ErrSweepInterrupted)) &&
		!errors.Is(err, context.DeadlineExceeded)
}
