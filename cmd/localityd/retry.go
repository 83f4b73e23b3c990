package main

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"locality/internal/jobs"
	"locality/internal/tenant"
)

// Retry-After derivation. Every retryable rejection (429/503) flows through
// writeRetryable, so the header is never hand-rolled at a call site and the
// hint always reflects what the server actually knows:
//
//   - A rate-limited tenant is told exactly when its token bucket refills
//     (the registry computes the deterministic deficit).
//   - A full queue is told its estimated drain time: queued jobs divided by
//     the worker count, at the conservative floor of one job-second per
//     worker. A queue of 12 over 4 workers clears no sooner than ~3s, so
//     "Retry-After: 1" would just bounce the client off the same full queue.
//   - A draining instance needs a redeploy; clients should route elsewhere
//     and wait longer (5s) before probing it again.
//
// Hints clamp to [1s, 30s] — matching the cap cluster.Client enforces when
// it honors them.

const (
	minRetrySeconds      = 1
	maxRetrySeconds      = 30
	drainingRetrySeconds = 5
)

// retryAfterSeconds derives the delay-seconds hint for a retryable
// rejection, in precedence order: an explicit tenant refill deadline, the
// draining sentinel, queue-occupancy drain estimate, then the 1s floor.
func retryAfterSeconds(err error) int {
	var le *tenant.LimitError
	if errors.As(err, &le) && le.RetryAfterNanos > 0 {
		nanos := le.RetryAfterNanos
		return clampRetry(int((nanos + int64(time.Second) - 1) / int64(time.Second)))
	}
	if errors.Is(err, jobs.ErrDraining) {
		return drainingRetrySeconds
	}
	var shed *jobs.ShedError
	if errors.As(err, &shed) && shed.Workers > 0 {
		return clampRetry((shed.QueueLen + shed.Workers - 1) / shed.Workers)
	}
	return minRetrySeconds
}

func clampRetry(s int) int {
	if s < minRetrySeconds {
		return minRetrySeconds
	}
	if s > maxRetrySeconds {
		return maxRetrySeconds
	}
	return s
}

// writeRetryable writes a retryable rejection: the Retry-After header
// derived from err, then the structured JSON body. It is the single exit
// for every 429/503 the daemon emits.
func writeRetryable(w http.ResponseWriter, status int, err error, resp errorResponse) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
	writeJSON(w, status, resp)
}

// shedStatus maps a rejection to its HTTP status: client errors are 400,
// per-tenant and global backpressure is 429 (the same client may retry
// later), and an unavailable pool — draining, or out of tenant slots — is
// 503 (route elsewhere).
func shedStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrUnknownExperiment),
		errors.Is(err, jobs.ErrInvalidRowSpec):
		return http.StatusBadRequest
	case errors.Is(err, jobs.ErrQueueFull),
		errors.Is(err, tenant.ErrRateLimited),
		errors.Is(err, tenant.ErrQueueFull),
		errors.Is(err, tenant.ErrInFlightLimit),
		errors.Is(err, tenant.ErrStreamLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining),
		errors.Is(err, tenant.ErrExhausted):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// retryableStatus reports whether a status carries a Retry-After hint.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// shedResponse renders the structured rejection body.
func shedResponse(err error) errorResponse {
	resp := errorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, jobs.ErrUnknownExperiment):
		resp.Reason = "unknown_experiment"
	case errors.Is(err, jobs.ErrInvalidRowSpec):
		resp.Reason = "invalid_rows"
	case errors.Is(err, tenant.ErrRateLimited):
		resp.Reason = "rate_limited"
	case errors.Is(err, tenant.ErrQueueFull):
		resp.Reason = "tenant_queue_full"
	case errors.Is(err, tenant.ErrInFlightLimit):
		resp.Reason = "in_flight_limit"
	case errors.Is(err, tenant.ErrStreamLimit):
		resp.Reason = "stream_limit"
	case errors.Is(err, tenant.ErrExhausted):
		resp.Reason = "tenant_exhausted"
	case errors.Is(err, jobs.ErrQueueFull):
		resp.Reason = "queue_full"
	case errors.Is(err, jobs.ErrDraining):
		resp.Reason = "draining"
	}
	var le *tenant.LimitError
	if errors.As(err, &le) {
		resp.Tenant = le.Tenant
	}
	var shed *jobs.ShedError
	if errors.As(err, &shed) {
		resp.QueueLen, resp.QueueCap = shed.QueueLen, shed.QueueCap
	}
	return resp
}
