package main

// Multi-tenant daemon tests: Retry-After derivation, per-tenant quota
// rejections over HTTP, idempotent submission, SSE streaming (including the
// drain race under a real SIGTERM), and the per-tenant /metrics series.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/tenant"
)

// submitKey posts a submission under a tenant API key ("" = anonymous).
func submitKey(t *testing.T, base, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(tenant.Header, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRetryAfterDerivation is the occupancy-derivation table: the hint must
// follow the tenant's refill deadline when one exists, the draining policy,
// or the queue's estimated drain time — clamped to [1, 30].
func TestRetryAfterDerivation(t *testing.T) {
	rateShed := func(nanos int64) error {
		return &jobs.ShedError{
			Reason: &tenant.LimitError{
				Tenant: "alpha", Reason: tenant.ErrRateLimited, RetryAfterNanos: nanos,
			},
			QueueLen: 3, QueueCap: 16, Workers: 2,
		}
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"rate limit refill deficit rounds up", rateShed(int64(1500 * time.Millisecond)), 2},
		{"rate limit exact second", rateShed(int64(time.Second)), 1},
		{"rate limit sub-second floors to 1", rateShed(int64(10 * time.Millisecond)), 1},
		// Sub-second boundary sweep: a wait of even 1ns must never render
		// Retry-After: 0 — that reads as "retry now" and invites a tight
		// client retry loop against a bucket that cannot have refilled.
		{"rate limit 1ns renders 1", rateShed(1), 1},
		{"rate limit 999999999ns renders 1", rateShed(int64(time.Second) - 1), 1},
		{"rate limit just over a second rounds to 2", rateShed(int64(time.Second) + 1), 2},
		{"rate limit exactly 30s stays 30", rateShed(int64(30 * time.Second)), 30},
		{"rate limit just under clamp rounds into it", rateShed(int64(30*time.Second) - 1), 30},
		{"rate limit clamps to 30", rateShed(int64(10 * time.Minute)), 30},
		// A zero RetryAfterNanos means "no bucket hint" (the tenant bucket
		// always emits >= 1ns): derivation falls back to queue occupancy.
		{"rate limit absent hint falls back to occupancy", rateShed(0), 2},
		{"draining", jobs.ErrDraining, 5},
		{"draining wrapped in shed", &jobs.ShedError{Reason: jobs.ErrDraining, QueueLen: 9, QueueCap: 16, Workers: 1}, 5},
		{"queue occupancy over workers", &jobs.ShedError{Reason: jobs.ErrQueueFull, QueueLen: 10, QueueCap: 16, Workers: 2}, 5},
		{"occupancy rounds up", &jobs.ShedError{Reason: jobs.ErrQueueFull, QueueLen: 5, QueueCap: 16, Workers: 2}, 3},
		{"occupancy clamps to 30", &jobs.ShedError{Reason: jobs.ErrQueueFull, QueueLen: 512, QueueCap: 512, Workers: 2}, 30},
		{"empty queue floors to 1", &jobs.ShedError{Reason: jobs.ErrQueueFull, QueueLen: 0, QueueCap: 1, Workers: 4}, 1},
		{"tenant queue cap falls back to occupancy", &jobs.ShedError{
			Reason:   &tenant.LimitError{Tenant: "beta", Reason: tenant.ErrQueueFull},
			QueueLen: 6, QueueCap: 16, Workers: 2,
		}, 3},
		{"limiter overload floors to 1", errOverloaded, 1},
		{"unclassified floors to 1", errors.New("mystery"), 1},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.err); got != c.want {
			t.Errorf("%s: retryAfterSeconds = %d, want %d", c.name, got, c.want)
		}
	}

	// And the helper actually stamps the header it derived.
	rec := httptest.NewRecorder()
	writeRetryable(rec, http.StatusTooManyRequests, rateShed(int64(1500*time.Millisecond)),
		shedResponse(rateShed(int64(1500*time.Millisecond))))
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header = %q, want 2", got)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Reason != "rate_limited" || er.Tenant != "alpha" || er.QueueLen != 3 {
		t.Errorf("rejection body %+v", er)
	}
}

// TestTenantQuotaHTTP: per-tenant rate quotas reject over the wire with
// 429, a derived Retry-After, the tenant's public ID — and never the key.
func TestTenantQuotaHTTP(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 1, Tenancy: &tenant.Config{
		Defaults: tenant.Limits{Rate: 1, Burst: 1},
		Pinned: []tenant.Pinned{{
			Name: "alpha", Key: "alpha-secret-key",
			Limits: tenant.Limits{Rate: 1, Burst: 1},
		}},
	}})

	resp := submitKey(t, ts.URL, "alpha-secret-key", `{"experiment":"E8","quick":true,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	var ok jobs.SubmitResult
	decode(t, resp, &ok)
	if ok.Tenant != "alpha" || ok.Deduped {
		t.Errorf("accept body %+v", ok)
	}

	resp = submitKey(t, ts.URL, "alpha-secret-key", `{"experiment":"E8","quick":true,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst exceeded: %d, want 429", resp.StatusCode)
	}
	if after := resp.Header.Get("Retry-After"); after != "1" {
		t.Errorf("Retry-After %q, want 1 (rate 1/s deficit)", after)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if er.Reason != "rate_limited" || er.Tenant != "alpha" {
		t.Errorf("shed body %+v", er)
	}
	if strings.Contains(string(raw), "alpha-secret-key") {
		t.Errorf("rejection leaks the raw API key: %s", raw)
	}

	// Another tenant's bucket is untouched.
	resp = submitKey(t, ts.URL, "other-key", `{"experiment":"E8","quick":true,"seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("independent tenant: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestIdempotentSubmitHTTP is the satellite e2e: concurrent duplicate
// submissions collapse to one job, the duplicate responses are
// byte-identical, and the terminal snapshot is stable.
func TestIdempotentSubmitHTTP(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 2, Idempotent: true})
	const n = 8
	body := `{"experiment":"E8","quick":true,"seed":11}`

	type result struct {
		status int
		raw    []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			results[i] = result{resp.StatusCode, raw}
		}(i)
	}
	wg.Wait()

	id, fresh := "", 0
	var dupBody []byte
	for i, r := range results {
		if r.status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, r.status, r.raw)
		}
		var sr jobs.SubmitResult
		if err := json.Unmarshal(r.raw, &sr); err != nil {
			t.Fatal(err)
		}
		if id == "" {
			id = sr.ID
		}
		if sr.ID != id {
			t.Fatalf("two IDs for one identity: %s, %s", id, sr.ID)
		}
		if !sr.Deduped {
			fresh++
			continue
		}
		if dupBody == nil {
			dupBody = r.raw
		} else if string(dupBody) != string(r.raw) {
			t.Errorf("duplicate bodies differ:\n%s\n%s", dupBody, r.raw)
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh acceptances, want exactly 1", fresh)
	}

	if j := pollJob(t, ts.URL, id); j.State != jobs.StateSucceeded {
		t.Fatalf("job state %s: %s", j.State, j.Error)
	}
	// The terminal snapshot is byte-stable — the duplicate callers all poll
	// the same job and read the same bytes.
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}
	if a, b := get(), get(); string(a) != string(b) {
		t.Error("terminal snapshots differ between reads")
	}
}

// sseEvent is one parsed frame off an SSE stream.
type sseEvent struct {
	name string
	ev   jobs.Event
}

// readSSE consumes an event stream to EOF. The snapshot frame (a jobs.Job
// payload) is returned by name with a zero event body. Failures use Errorf,
// not Fatalf, so the helper is safe off the test goroutine; a scanner error
// means the server severed the stream instead of closing it cleanly.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev jobs.Event
			if name != "snapshot" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Errorf("bad event payload %q: %v", line, err)
					continue
				}
			}
			events = append(events, sseEvent{name: name, ev: ev})
		case line == "":
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Errorf("stream not closed cleanly: %v", err)
	}
	return events
}

// openStream issues the events request and asserts the streaming handshake.
func openStream(t *testing.T, base, key, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(tenant.Header, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSSEStream: the events endpoint streams snapshot, batch progress, and
// a final terminal frame, then closes.
func TestSSEStream(t *testing.T) {
	subscribed := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(subscribed) }) }
	defer release() // a failed assertion must still unblock the pool drain
	_, ts := testServer(t, jobs.Options{Workers: 1,
		BatchHook: func(string, *harness.Checkpoint) { <-subscribed }})

	resp := submit(t, ts.URL, `{"experiment":"E12","quick":true,"seed":5}`)
	var accepted jobs.SubmitResult
	decode(t, resp, &accepted)

	stream := openStream(t, ts.URL, "", accepted.ID)
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(stream.Body)
		t.Fatalf("stream status %d: %s", stream.StatusCode, raw)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	release()

	events := readSSE(t, stream.Body)
	if len(events) < 2 {
		t.Fatalf("only %d frames", len(events))
	}
	if events[0].name != "snapshot" {
		t.Errorf("first frame %q, want snapshot", events[0].name)
	}
	progress := 0
	var lastSeq uint64
	for _, e := range events[1:] {
		if e.ev.Seq <= lastSeq {
			t.Fatalf("sequence not increasing: %d after %d", e.ev.Seq, lastSeq)
		}
		lastSeq = e.ev.Seq
		if e.name == "progress" && e.ev.BatchesDone > 0 {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no batch progress frames")
	}
	last := events[len(events)-1]
	if last.name != "terminal" || !last.ev.Terminal || last.ev.State != jobs.StateSucceeded {
		t.Errorf("final frame %q %+v", last.name, last.ev)
	}
}

// TestSSEStreamCapHTTP is the stream-cap satellite: the per-tenant cap
// rejects the second stream with 429, Retry-After, and the structured body.
func TestSSEStreamCapHTTP(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	_, ts := testServer(t, jobs.Options{Workers: 1,
		Tenancy:   &tenant.Config{Defaults: tenant.Limits{MaxStreams: 1}},
		BatchHook: func(string, *harness.Checkpoint) { <-gate }})

	resp := submitKey(t, ts.URL, "k", `{"experiment":"E12","quick":true,"seed":1}`)
	var accepted jobs.SubmitResult
	decode(t, resp, &accepted)

	first := openStream(t, ts.URL, "k", accepted.ID)
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first stream: %d", first.StatusCode)
	}

	second := openStream(t, ts.URL, "k", accepted.ID)
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped stream: %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("capped stream missing Retry-After")
	}
	var er errorResponse
	decode(t, second, &er)
	if er.Reason != "stream_limit" || er.Tenant == "k" || er.Tenant == "" {
		t.Errorf("cap body %+v", er)
	}

	// Another tenant streams fine.
	other := openStream(t, ts.URL, "k2", accepted.ID)
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: %d", other.StatusCode)
	}
	other.Body.Close()

	// Unknown jobs 404 before any quota charge.
	missing := openStream(t, ts.URL, "k3", "job-404")
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream: %d", missing.StatusCode)
	}
	missing.Body.Close()
}

// TestSSEDrainOnSIGTERM is the drain-race satellite, full stack: a real
// listener, a live stream, SIGTERM mid-job. The stream must deliver a
// terminal frame and close cleanly — no severed connection, no hang — and
// serve must return with no leaked goroutines.
func TestSSEDrainOnSIGTERM(t *testing.T) {
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
			time.Sleep(20 * time.Millisecond) // keep the job alive past SIGTERM
		}}
	done := make(chan error, 1)
	go func() {
		done <- serve(ln, opts, nil, storeConfig{}, traceConfig{}, 150*time.Millisecond, 5*time.Second, 64, "")
	}()

	waitHTTP(t, base+"/healthz", http.StatusOK, 10*time.Second)
	resp := submit(t, base, `{"experiment":"E12","quick":true,"seed":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var accepted jobs.SubmitResult
	decode(t, resp, &accepted)
	<-started

	stream := openStream(t, base, "", accepted.ID)
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", stream.StatusCode)
	}

	frames := make(chan []sseEvent, 1)
	go func() { frames <- readSSE(t, stream.Body) }()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case events := <-frames:
		if len(events) == 0 {
			t.Fatal("stream closed without frames")
		}
		last := events[len(events)-1]
		if last.name != "terminal" || !last.ev.Terminal {
			t.Errorf("drained stream's final frame %q %+v, want terminal", last.name, last.ev)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after SIGTERM")
	}

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

// TestMetricsPerTenant: /metrics exposes the bounded per-tenant admission
// series — pinned tenants by name, never by key.
func TestMetricsPerTenant(t *testing.T) {
	_, ts := testServer(t, jobs.Options{Workers: 1, Tenancy: &tenant.Config{
		Pinned: []tenant.Pinned{{
			Name: "alpha", Key: "alpha-secret-key",
			Limits: tenant.Limits{Rate: 1, Burst: 1},
		}},
	}})

	resp := submitKey(t, ts.URL, "alpha-secret-key", `{"experiment":"E8","quick":true,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var accepted jobs.SubmitResult
	decode(t, resp, &accepted)
	resp = submitKey(t, ts.URL, "alpha-secret-key", `{"experiment":"E8","quick":true,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate shed: %d", resp.StatusCode)
	}
	resp.Body.Close()
	pollJob(t, ts.URL, accepted.ID)
	stream := openStream(t, ts.URL, "alpha-secret-key", accepted.ID)
	readSSE(t, stream.Body) // terminal job: snapshot then immediate close
	stream.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, _ := io.ReadAll(mr.Body)
	body := string(raw)
	for _, want := range []string{
		`locality_tenant_admitted_total{tenant="alpha"} 1`,
		`locality_tenant_shed_total{tenant="alpha",reason="rate_limited"} 1`,
		`locality_tenant_streams_total{tenant="alpha"} 1`,
		`locality_http_requests_total{route="events",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "alpha-secret-key") {
		t.Error("/metrics leaks a raw API key")
	}
}
