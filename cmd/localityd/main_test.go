package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
)

// testServer wraps a handler-level instance for white-box endpoint tests.
func testServer(t *testing.T, opts jobs.Options) (*server, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	pool := jobs.New(opts)
	s := newServer(pool, 64, 10*time.Second, reg, nil)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.drain(drainCtx)
	})
	return s, ts
}

func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func submit(t *testing.T, base string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func pollJob(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobs.Job
		decode(t, resp, &j)
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after 30s", id)
	return jobs.Job{}
}

func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestEndToEnd(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp = submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location header %q", loc)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	decode(t, resp, &accepted)

	j := pollJob(t, ts.URL, accepted.ID)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("job state %s, error %q", j.State, j.Error)
	}
	if !strings.Contains(j.Output, "== E8") {
		t.Errorf("output missing table header:\n%s", j.Output)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	decode(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != accepted.ID {
		t.Errorf("list: %+v", list.Jobs)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 1})
	resp := submit(t, ts.URL, `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = submit(t, ts.URL, `{"experiment":"E99"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment: status %d", resp.StatusCode)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Reason != "unknown_experiment" {
		t.Errorf("reason %q", er.Reason)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-404")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQueueFullShed429: a full submission queue sheds with HTTP 429 and a
// structured body stating the reason and queue occupancy.
func TestQueueFullShed429(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 16)
	_, ts := testServer(t, jobs.Options{Workers: 1, QueueDepth: 1,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if len(ck.Batches) == 1 {
				held <- struct{}{}
				<-hold
			}
		}})
	defer close(hold)

	resp := submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-held
	resp = submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Reason != "queue_full" || er.QueueLen != 1 || er.QueueCap != 1 {
		t.Errorf("shed body %+v", er)
	}
}

// TestConcurrencyLimit: the in-flight semaphore rejects excess requests
// with 503 instead of queueing them invisibly.
func TestConcurrencyLimit(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	s := newServer(pool, 1, time.Second, obs.NewRegistry(), nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.drain(ctx)
	}()

	s.inflight <- struct{}{} // occupy the only slot
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	var er errorResponse
	decode(t, resp, &er)
	if er.Reason != "overloaded" {
		t.Errorf("reason %q", er.Reason)
	}
	<-s.inflight
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("freed server: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestCancelEndpoint(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 16)
	_, ts := testServer(t, jobs.Options{Workers: 1, QueueDepth: 4,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if id == "job-0" && len(ck.Batches) == 1 {
				held <- struct{}{}
				<-hold
			}
		}})
	resp := submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":1}`)
	resp.Body.Close()
	<-held
	resp = submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":2}`)
	var accepted struct {
		ID string `json:"id"`
	}
	decode(t, resp, &accepted)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-404", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	close(hold)
	if j := pollJob(t, ts.URL, accepted.ID); j.State != jobs.StateCancelled {
		t.Errorf("cancelled job state %s", j.State)
	}
}

// TestSIGTERMDrain is the full lifecycle acceptance: a real listener, a
// running job, SIGTERM delivered to the process. /readyz must flip to 503
// while draining, the drain deadline must force-cancel the job (progress
// checkpointed by the pool), and serve must return with zero leaked
// goroutines.
func TestSIGTERMDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	started := make(chan struct{}, 64)
	opts := jobs.Options{Workers: 1,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if len(ck.Batches) == 1 {
				started <- struct{}{}
			}
			time.Sleep(30 * time.Millisecond)
		}}
	done := make(chan error, 1)
	go func() {
		done <- serve(ln, opts, nil, storeConfig{}, traceConfig{}, 150*time.Millisecond, 5*time.Second, 64, "")
	}()

	waitHTTP(t, base+"/healthz", http.StatusOK, 10*time.Second)
	resp := submit(t, base, `{"experiment":"E12","quick":true,"seed":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-started

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// While the pool drains, the listener still answers probes — and
	// reports not-ready.
	waitHTTP(t, base+"/readyz", http.StatusServiceUnavailable, 5*time.Second)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after SIGTERM")
	}
	checkGoroutines(t, before)
}

// waitHTTP polls a URL until it answers with the wanted status.
func waitHTTP(t *testing.T, url string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
			last = fmt.Sprintf("%d: %s", resp.StatusCode, buf.String())
		} else {
			last = err.Error()
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never answered %d (last: %s)", url, want, last)
}

// TestMetricsEndpoint: after a served job, /metrics exposes the shared
// registry in Prometheus text format — jobs-pool families and the HTTP
// request histogram both appear, so one scrape covers the whole daemon.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 1})
	resp := submit(t, ts.URL, `{"experiment":"E8","quick":true,"seed":7}`)
	var accepted struct {
		ID string `json:"id"`
	}
	decode(t, resp, &accepted)
	pollJob(t, ts.URL, accepted.ID)

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus 0.0.4 text format", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	body := buf.String()
	for _, want := range []string{
		"locality_jobs_submitted_total 1",
		`locality_jobs_completed_total{state="succeeded"} 1`,
		"# TYPE locality_http_request_seconds histogram",
		`locality_http_requests_total{route="submit",code="202"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestPprofOptIn: the profiling mux answers only when explicitly enabled —
// the main handler never routes /debug/pprof/.
func TestPprofOptIn(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("main handler serves /debug/pprof/; profiling must be opt-in via -pprof-addr")
	}

	ps := httptest.NewServer(pprofHandler())
	defer ps.Close()
	pr, err := http.Get(ps.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d, want 200", pr.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(pr.Body)
	if !strings.Contains(buf.String(), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%s", buf.String())
	}
}
