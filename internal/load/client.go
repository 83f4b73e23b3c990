// HTTP client ops: submit, poll-to-terminal, and SSE stream consumption.
// All requests carry the tenant API key and the caller's context; latency
// measurement and pacing go through the leaves in leaves.go.
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"locality/internal/jobs"
	"locality/internal/tenant"
)

// pollPause paces terminal-state polling; pollBudget bounds how long one
// job may take.
const (
	pollPause  = 3 * time.Millisecond
	pollBudget = 30 * time.Second
)

type submitBody struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
}

// submitOutcome classifies one submit: admitted (id, deduped), shed
// (structured 429/503 — not an error; sheds are load-test data), or error.
type submitOutcome struct {
	id            string
	deduped       bool
	cached        bool
	shed          bool
	latencyMillis float64
}

type streamSummary struct {
	frames      int
	sawTerminal bool
}

type client struct {
	base string
	key  string
	// api serves bounded request/response calls; streams use a separate
	// un-timeouted client (an SSE stream is long-lived by design) bounded
	// by the request context instead.
	api     *http.Client
	streams *http.Client
}

func newClient(base, key string) *client {
	return &client{
		base:    strings.TrimRight(base, "/"),
		key:     key,
		api:     &http.Client{Timeout: pollBudget},
		streams: &http.Client{},
	}
}

// do sends a bounded API request; ctx (already attached to req by every
// caller) is what makes the wait cancellable.
func (c *client) do(ctx context.Context, req *http.Request) (*http.Response, error) {
	if c.key != "" {
		req.Header.Set(tenant.Header, c.key)
	}
	return c.api.Do(req.WithContext(ctx))
}

// submit POSTs one job and classifies the answer.
func (c *client) submit(ctx context.Context, body submitBody) (submitOutcome, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return submitOutcome{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(data))
	if err != nil {
		return submitOutcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(ctx, req)
	if err != nil {
		return submitOutcome{}, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var res jobs.SubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return submitOutcome{}, fmt.Errorf("decoding 202 body: %w", err)
		}
		return submitOutcome{id: res.ID, deduped: res.Deduped, cached: res.Cached}, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return submitOutcome{shed: true}, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return submitOutcome{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, b)
	}
}

// submitAndWait submits and polls the job to a terminal state, measuring
// wall-clock submit→terminal latency in milliseconds.
func (c *client) submitAndWait(ctx context.Context, body submitBody) (submitOutcome, error) {
	start := nowNanos()
	out, err := c.submit(ctx, body)
	if err != nil || out.shed {
		return out, err
	}
	deadline := start + pollBudget.Nanoseconds()
	for nowNanos() < deadline && ctx.Err() == nil {
		j, err := c.getJob(ctx, out.id)
		if err != nil {
			return out, err
		}
		if j.State.Terminal() {
			if j.State != jobs.StateSucceeded {
				return out, fmt.Errorf("job %s ended %s: %s", out.id, j.State, j.Error)
			}
			out.latencyMillis = float64(nowNanos()-start) / 1e6
			return out, nil
		}
		sleep(ctx, pollPause)
	}
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	return out, fmt.Errorf("job %s not terminal within %s", out.id, pollBudget)
}

func (c *client) getJob(ctx context.Context, id string) (jobs.Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobs.Job{}, err
	}
	resp, err := c.do(ctx, req)
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("get job %s: status %d", id, resp.StatusCode)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return jobs.Job{}, err
	}
	return j, nil
}

// stream consumes GET /v1/jobs/{id}/events to EOF. A terminal state counts
// whether it arrives as a terminal event frame or as the opening snapshot
// of an already-finished job. onOpen, when non-nil, fires once after the
// first frame — the signal the chaos phase uses to time its SIGTERM. A
// transport error or unterminated frame reports as an error: streams must
// close cleanly even under drain.
func (c *client) stream(ctx context.Context, id string, onOpen func()) (streamSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return streamSummary{}, err
	}
	if c.key != "" {
		req.Header.Set(tenant.Header, c.key)
	}
	resp, err := c.streams.Do(req)
	if err != nil {
		return streamSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return streamSummary{}, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}

	var sum streamSummary
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			sum.frames++
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "terminal":
				sum.sawTerminal = true
			case "snapshot":
				var j jobs.Job
				if err := json.Unmarshal([]byte(data), &j); err == nil && j.State.Terminal() {
					sum.sawTerminal = true
				}
			}
			if sum.frames == 1 && onOpen != nil {
				onOpen()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("stream %s severed after %d frames: %w", id, sum.frames, err)
	}
	return sum, nil
}
