package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/tenant"
)

// ErrShardUnavailable classifies a client call that exhausted its retry
// budget against timeouts, connection failures, or retryable statuses —
// the signal the coordinator treats as "this shard may be dead".
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// SubmitRequest is the POST /v1/jobs wire body: the fields of localityd's
// request schema a coordinator sets (the in-process e2e test pins the two
// together).
type SubmitRequest struct {
	Experiment string        `json:"experiment"`
	Quick      bool          `json:"quick,omitempty"`
	Seed       uint64        `json:"seed"`
	TimeoutMS  int64         `json:"timeout_ms,omitempty"`
	Rows       *jobs.RowSpec `json:"rows,omitempty"`
}

// CheckpointResponse is the GET /v1/jobs/{id}/checkpoint wire body.
type CheckpointResponse struct {
	State      jobs.State          `json:"state"`
	Checkpoint *harness.Checkpoint `json:"checkpoint"`
}

// errorBody is every non-2xx JSON body a worker sends (localityd's
// errorResponse shape).
type errorBody struct {
	Error    string `json:"error"`
	Reason   string `json:"reason,omitempty"`
	QueueLen int    `json:"queue_len,omitempty"`
	QueueCap int    `json:"queue_cap,omitempty"`
}

// StatusError is a non-retryable HTTP rejection from a shard (4xx other
// than 429): the request is wrong, not the shard.
type StatusError struct {
	Status int
	Reason string
	Detail string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: shard rejected request: %d %s (%s)", e.Status, e.Reason, e.Detail)
}

// Client is a retrying HTTP client for one worker shard. Transient
// failures — network errors, 5xx, 429 — are retried up to Retries attempts
// with the deterministic-jitter Backoff schedule, honoring any Retry-After
// the shard sends (the structured-shed satellite: workers say how long to
// back off, and this client listens). Permanent rejections (other 4xx)
// surface as *StatusError immediately.
type Client struct {
	// Shard identifies the worker this client talks to.
	Shard Shard
	// HTTP issues the requests; its Timeout bounds each attempt.
	HTTP *http.Client
	// Retries is the attempt budget per call (default 3).
	Retries int
	// Backoff paces retry attempts (pure seeded jitter, no clock reads).
	Backoff harness.Backoff
	// OnRetry, when non-nil, observes each retried attempt (for metrics).
	OnRetry func(shard string)
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 3
}

// Submit dispatches a job to the shard and returns its ID.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", req, &resp); err != nil {
		return "", err
	}
	if resp.ID == "" {
		return "", fmt.Errorf("cluster: shard %s accepted a job without an ID", c.Shard.Name)
	}
	return resp.ID, nil
}

// Job fetches a job snapshot.
func (c *Client) Job(ctx context.Context, id string) (jobs.Job, error) {
	var j jobs.Job
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Checkpoint fetches the job's latest checkpoint snapshot (nil when the
// job has not committed a batch yet).
func (c *Client) Checkpoint(ctx context.Context, id string) (CheckpointResponse, error) {
	var resp CheckpointResponse
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/checkpoint", nil, &resp)
	return resp, err
}

// Cancel requests cancellation of a job (best-effort: a dead shard cannot
// cancel, and that is fine — its work is reassigned anyway).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Health probes /healthz once, without retries: the prober owns the
// retry/backoff policy across probes.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Shard.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, c.Shard.Name, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s: healthz %d", ErrShardUnavailable, c.Shard.Name, resp.StatusCode)
	}
	return nil
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call issues one API request under the retry discipline.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("cluster: encoding request: %w", err)
		}
	}
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < c.retries(); attempt++ {
		if attempt > 0 {
			if c.OnRetry != nil {
				c.OnRetry(c.Shard.Name)
			}
			// A shard-stated Retry-After floors the jitter schedule: the
			// shard knows its own queue better than our backoff curve does.
			wait := c.Backoff.Delay(attempt)
			if retryAfter > wait {
				wait = retryAfter
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, c.Shard.Name, err)
			}
		}
		var err error
		retryAfter, err = c.attempt(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			return err // permanent: retrying cannot help
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, c.Shard.Name, context.Cause(ctx))
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, c.Shard.Name, lastErr)
}

// attempt is one HTTP round trip. It returns the shard's Retry-After hint
// (0 when absent) alongside the error.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Shard.URL+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key := TenantFrom(ctx); key != "" {
		req.Header.Set(tenant.Header, key)
	}
	if tv := TraceHeaderFrom(ctx); tv != "" {
		req.Header.Set(TraceHeader, tv)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 300 {
		if out == nil {
			return 0, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, fmt.Errorf("cluster: decoding %s %s: %w", method, path, err)
		}
		return 0, nil
	}
	var eb errorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
	retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	if !retryable {
		return 0, &StatusError{Status: resp.StatusCode, Reason: eb.Reason, Detail: eb.Error}
	}
	return parseRetryAfter(resp.Header.Get("Retry-After")),
		fmt.Errorf("cluster: %s %s: %d (%s)", method, path, resp.StatusCode, eb.Reason)
}

// parseRetryAfter reads a delay-seconds Retry-After value (the only form
// localityd emits), capped so a confused shard cannot stall the
// coordinator.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	const cap = 30 * time.Second
	if d := time.Duration(secs) * time.Second; d < cap {
		return d
	}
	return cap
}

// sleepCtx waits d (non-positive returns immediately), abandoning on ctx
// death.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// drainClose exhausts and closes a response body so the transport can
// reuse the connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
