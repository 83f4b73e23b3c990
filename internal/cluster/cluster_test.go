package cluster_test

// Cluster unit tests drive the coordinator against stub workers: real
// jobs.Pools behind minimal HTTP handlers speaking localityd's wire format,
// with injectable sheds and hard kills. The full-stack version — real
// localityd processes, SIGKILL — lives in cmd/localityd's e2e test.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locality/internal/cluster"
	"locality/internal/harness"
	"locality/internal/jobs"
)

// stubWorker is one fake shard: a real pool behind the worker wire format.
type stubWorker struct {
	pool *jobs.Pool
	srv  *httptest.Server

	mu       sync.Mutex
	shedNext int // shed the next N submissions with 503 + Retry-After
	submits  int // total submit requests seen (shed or not)
}

func newStubWorker(t *testing.T, opts jobs.Options) *stubWorker {
	t.Helper()
	w := &stubWorker{pool: jobs.New(opts)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", w.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", w.handleCheckpoint)
	mux.HandleFunc("DELETE /v1/jobs/{id}", w.handleCancel)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(func() {
		w.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = w.pool.Close(ctx)
	})
	return w
}

func (w *stubWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	w.submits++
	shed := w.shedNext > 0
	if shed {
		w.shedNext--
	}
	w.mu.Unlock()
	if shed {
		rw.Header().Set("Retry-After", "1")
		writeJSON(rw, http.StatusServiceUnavailable, map[string]any{
			"error": "stub shed", "reason": "queue_full"})
		return
	}
	var req cluster.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]any{"error": err.Error(), "reason": "bad_request"})
		return
	}
	id, err := w.pool.Submit(jobs.Spec{
		Experiment: req.Experiment,
		Quick:      req.Quick,
		Seed:       req.Seed,
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Rows:       req.Rows,
	})
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(rw, http.StatusAccepted, map[string]string{"id": id})
}

func (w *stubWorker) handleCheckpoint(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := w.pool.Get(id)
	if !ok {
		writeJSON(rw, http.StatusNotFound, map[string]any{"error": "unknown job", "reason": "not_found"})
		return
	}
	ck, _ := w.pool.Checkpoint(id)
	writeJSON(rw, http.StatusOK, cluster.CheckpointResponse{State: j.State, Checkpoint: ck})
}

func (w *stubWorker) handleCancel(rw http.ResponseWriter, r *http.Request) {
	if err := w.pool.Cancel(r.PathValue("id")); err != nil {
		writeJSON(rw, http.StatusNotFound, map[string]any{"error": err.Error(), "reason": "not_found"})
		return
	}
	writeJSON(rw, http.StatusAccepted, map[string]string{"status": "cancelling"})
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

// runDirect renders the unsharded single-process ground truth.
func runDirect(t *testing.T, spec jobs.Spec) (string, int) {
	t.Helper()
	driver, ok := harness.ByID(spec.Experiment)
	if !ok {
		t.Fatalf("unknown experiment %s", spec.Experiment)
	}
	batches := 0
	tbl := driver(harness.Config{Quick: spec.Quick, Seed: spec.Seed,
		OnBatch: func(*harness.Checkpoint) { batches++ }})
	var buf bytes.Buffer
	tbl.Render(&buf)
	return buf.String(), batches
}

// fastOptions keeps coordinator test latency low.
func fastOptions(workers ...*stubWorker) cluster.Options {
	shards := make([]cluster.Shard, len(workers))
	for i, w := range workers {
		shards[i] = cluster.Shard{Name: string(rune('a' + i)), URL: w.srv.URL}
	}
	return cluster.Options{
		Shards:         shards,
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		Backoff:        harness.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 1},
		PollInterval:   15 * time.Millisecond,
		ProbeInterval:  15 * time.Millisecond,
		ProbeThreshold: 2,
	}
}

// TestMembershipParsing pins both membership syntaxes and their rejections.
func TestMembershipParsing(t *testing.T) {
	shards, err := cluster.ParseShards("http://a:1, two=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Shard{{Name: "shard0", URL: "http://a:1"}, {Name: "two", URL: "http://b:2"}}
	if len(shards) != 2 || shards[0] != want[0] || shards[1] != want[1] {
		t.Errorf("ParseShards = %+v, want %+v", shards, want)
	}
	for _, bad := range []string{"", "a:1", "x=http://a,x=http://b", "x="} {
		if _, err := cluster.ParseShards(bad); err == nil {
			t.Errorf("ParseShards(%q) accepted", bad)
		}
	}

	path := filepath.Join(t.TempDir(), "members")
	content := "# cluster members\n\nhttp://a:1\nw2 = http://b:2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err = cluster.LoadShards(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[1].Name != "w2" || shards[1].URL != "http://b:2" {
		t.Errorf("LoadShards = %+v", shards)
	}
	if _, err := cluster.LoadShards(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("LoadShards on a missing file accepted")
	}
}

// TestClientRetriesShedSubmit: a worker shedding with 503 + Retry-After is
// retried — the structured-shed satellite from the client's side. The
// Retry-After floor is honored: the second attempt waits the full stated
// second rather than the 5ms jitter schedule.
func TestClientRetriesShedSubmit(t *testing.T) {
	w := newStubWorker(t, jobs.Options{Workers: 1})
	w.mu.Lock()
	w.shedNext = 1
	w.mu.Unlock()
	c := &cluster.Client{
		Shard:   cluster.Shard{Name: "w", URL: w.srv.URL},
		HTTP:    &http.Client{Timeout: 2 * time.Second},
		Retries: 3,
		Backoff: harness.Backoff{Base: 5 * time.Millisecond, Seed: 1},
	}
	start := time.Now()
	id, err := c.Submit(context.Background(), cluster.SubmitRequest{Experiment: "E8", Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("submit through shed: %v", err)
	}
	if id == "" {
		t.Fatal("no job ID")
	}
	if elapsed := time.Since(start); elapsed < 800*time.Millisecond {
		t.Errorf("retry waited %v; Retry-After: 1 should floor the wait near 1s", elapsed)
	}
	w.mu.Lock()
	submits := w.submits
	w.mu.Unlock()
	if submits != 2 {
		t.Errorf("worker saw %d submits, want 2 (shed + accepted)", submits)
	}
}

// TestClientPermanentRejection: a 4xx other than 429 is not retried.
func TestClientPermanentRejection(t *testing.T) {
	w := newStubWorker(t, jobs.Options{Workers: 1})
	c := &cluster.Client{
		Shard:   cluster.Shard{Name: "w", URL: w.srv.URL},
		HTTP:    &http.Client{Timeout: 2 * time.Second},
		Retries: 3,
	}
	_, err := c.Submit(context.Background(), cluster.SubmitRequest{Experiment: "E99"})
	var se *cluster.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StatusError", err)
	}
	w.mu.Lock()
	submits := w.submits
	w.mu.Unlock()
	if submits != 1 {
		t.Errorf("worker saw %d submits, want 1 (no retry on permanent rejection)", submits)
	}
}

// TestProberFlipsAndHeals: Threshold consecutive failures flip the shard
// unhealthy; one success heals it.
func TestProberFlipsAndHeals(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	p := &cluster.Prober{
		Client: &cluster.Client{
			Shard: cluster.Shard{Name: "w", URL: srv.URL},
			HTTP:  &http.Client{Timeout: time.Second},
		},
		Interval:  10 * time.Millisecond,
		Backoff:   harness.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1},
		Threshold: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if p.Healthy() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("prober never observed %s", what)
	}
	waitFor(true, "initial health")
	healthy.Store(false)
	waitFor(false, "unhealthy after threshold failures")
	healthy.Store(true)
	waitFor(true, "healing")
	cancel()
	<-done
}

// TestCoordinatorByteIdentical: the no-failure path — three healthy shards,
// merged output byte-identical to the single-process run, nothing
// recomputed locally, nothing lost.
func TestCoordinatorByteIdentical(t *testing.T) {
	spec := jobs.Spec{Experiment: "E4", Quick: true, Seed: 7}
	want, total := runDirect(t, spec)

	workers := []*stubWorker{
		newStubWorker(t, jobs.Options{Workers: 2}),
		newStubWorker(t, jobs.Options{Workers: 2}),
		newStubWorker(t, jobs.Options{Workers: 2}),
	}
	coord, err := cluster.New(fastOptions(workers...))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != want {
		t.Errorf("cluster output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, res.Output)
	}
	if res.TotalBatches != total || res.Lost != 0 || res.Recomputed != 0 || res.Retried != 0 {
		t.Errorf("total %d lost %d recomputed %d retried %d; want %d/0/0/0",
			res.TotalBatches, res.Lost, res.Recomputed, res.Retried, total)
	}
	adopted := 0
	for _, n := range res.Adopted {
		adopted += n
	}
	if adopted != total {
		t.Errorf("adopted %d batches across shards, want %d", adopted, total)
	}
}

// TestCoordinatorFailover kills one stub shard mid-sweep (server closed,
// its pool still burning CPU — exactly what a crashed process looks like
// from outside) and asserts the merged output is still byte-identical with
// zero batches lost.
func TestCoordinatorFailover(t *testing.T) {
	spec := jobs.Spec{Experiment: "E4", Quick: true, Seed: 7}
	want, total := runDirect(t, spec)

	// Every worker paces batches so the kill lands mid-sweep.
	pace := func(string, *harness.Checkpoint) { time.Sleep(25 * time.Millisecond) }
	var victim *stubWorker
	victimDone := make(chan struct{})
	var once sync.Once
	victim = newStubWorker(t, jobs.Options{Workers: 1,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			pace(id, ck)
			once.Do(func() { close(victimDone) }) // first batch committed: killable
		}})
	w1 := newStubWorker(t, jobs.Options{Workers: 1, BatchHook: pace})
	w2 := newStubWorker(t, jobs.Options{Workers: 1, BatchHook: pace})

	go func() {
		<-victimDone
		victim.srv.Close() // hard kill: connections refused from now on
	}()

	opts := fastOptions(victim, w1, w2)
	// OnSpan fires on the Run goroutine; the slice is read after Run returns.
	var spans []cluster.SpanEvent
	opts.OnSpan = func(e cluster.SpanEvent) { spans = append(spans, e) }
	coord, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run with dead shard: %v", err)
	}
	if res.Output != want {
		t.Errorf("failover output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, res.Output)
	}
	if res.Lost != 0 {
		t.Errorf("lost %d batches", res.Lost)
	}
	if res.TotalBatches != total {
		t.Errorf("total %d, want %d", res.TotalBatches, total)
	}
	if res.Retried == 0 && res.Recomputed == 0 {
		t.Error("a shard died mid-sweep but nothing was retried or recomputed")
	}
	if !slices.ContainsFunc(spans, func(e cluster.SpanEvent) bool { return e.Name == "cluster.failover" }) {
		t.Errorf("no cluster.failover span reported; spans: %+v", spans)
	}
}

// TestCoordinatorAllShardsDead: with the whole membership down, the
// endgame recomputes everything locally — degraded, never wrong.
func TestCoordinatorAllShardsDead(t *testing.T) {
	spec := jobs.Spec{Experiment: "E8", Quick: true, Seed: 3}
	want, total := runDirect(t, spec)
	opts := fastOptions()
	opts.Shards = []cluster.Shard{{Name: "ghost", URL: "http://127.0.0.1:1"}}
	coord, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != want {
		t.Errorf("dead-cluster output differs:\n--- want ---\n%s--- got ---\n%s", want, res.Output)
	}
	if res.Recomputed != total || res.Lost != 0 {
		t.Errorf("recomputed %d lost %d, want %d/0", res.Recomputed, res.Lost, total)
	}
}
