package main

// Cluster e2e: the coordinator front-end over real worker handlers, and —
// the tentpole acceptance test — a multi-process run where one worker
// localityd is SIGKILLed mid-sweep and the merged table still comes out
// byte-identical to a single-process run with zero batches lost.
//
// The kill test re-execs this test binary as the worker daemon (TestMain's
// LOCALITYD_E2E_WORKER guard), so the processes under test run the real
// serve path, not a stub. The coordinator traces every sweep; its
// cluster.sweep span carries the failover summary the tests assert on.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"locality/internal/cluster"
	"locality/internal/fault"
	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
)

func TestMain(m *testing.M) {
	if os.Getenv("LOCALITYD_E2E_WORKER") == "1" {
		runE2EWorker()
		return
	}
	os.Exit(m.Run())
}

// runE2EWorker is the re-exec'd worker daemon: a real worker server on an
// ephemeral port, address announced on stdout, batches paced so a parent
// can land a SIGKILL mid-sweep. It never exits on its own — SIGKILL is the
// test's teardown.
func runE2EWorker() {
	pace := 20 * time.Millisecond
	if ms, err := strconv.Atoi(os.Getenv("LOCALITYD_E2E_PACE_MS")); err == nil && ms > 0 {
		pace = time.Duration(ms) * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("e2e worker: listen: %v", err)
	}
	fmt.Printf("LISTENING http://%s\n", ln.Addr())
	os.Stdout.Sync()
	reg := obs.NewRegistry()
	// LOCALITYD_E2E_TRACEDIR turns the worker into a trace-emitting shard:
	// the multi-process trace e2e points every process at one shared
	// artifact directory with distinct proc names.
	var tr *trace.Tracer
	if dir := os.Getenv("LOCALITYD_E2E_TRACEDIR"); dir != "" {
		proc := os.Getenv("LOCALITYD_E2E_TRACEPROC")
		if proc == "" {
			proc = fmt.Sprintf("worker-%d", os.Getpid())
		}
		var err error
		tr, err = trace.Open(trace.Options{Dir: dir, Proc: proc, Metrics: reg})
		if err != nil {
			log.Fatalf("e2e worker: trace: %v", err)
		}
	}
	pool := jobs.New(jobs.Options{
		Workers:       1,
		Metrics:       reg,
		Tracer:        tr,
		CheckpointDir: os.Getenv("LOCALITYD_E2E_CKDIR"),
		BatchHook:     func(string, *harness.Checkpoint) { time.Sleep(pace) },
	})
	s := newServer(pool, 64, 10*time.Second, reg, tr)
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	log.Fatal(srv.Serve(ln))
}

// directRun renders the single-process ground truth (Workers=1).
func directRun(t *testing.T, experiment string, seed uint64) string {
	t.Helper()
	driver, ok := harness.ByID(experiment)
	if !ok {
		t.Fatalf("unknown experiment %s", experiment)
	}
	var buf bytes.Buffer
	driver(harness.Config{Quick: true, Seed: seed}).Render(&buf)
	return buf.String()
}

// testClusterFrontend stands up a coordinator front-end over the given
// worker URLs — the real server and pool, executing through
// coordinatorOptions exactly as serve wires -coordinator — and serves its
// API from an httptest server. opts carries the pool settings under test
// (Tracer, Retention, Idempotent).
func testClusterFrontend(t *testing.T, opts jobs.Options, workerURLs ...string) (*server, *httptest.Server) {
	t.Helper()
	shards := make([]cluster.Shard, len(workerURLs))
	for i, u := range workerURLs {
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard%d", i), URL: u}
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	opts, err := coordinatorOptions(opts, cluster.Options{
		Shards:         shards,
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		Backoff:        harness.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1},
		PollInterval:   15 * time.Millisecond,
		ProbeInterval:  15 * time.Millisecond,
		ProbeThreshold: 2,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(jobs.New(opts), 64, 10*time.Second, reg, opts.Tracer)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.drain(ctx)
	})
	return s, ts
}

func pollClusterJob(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
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
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster job %s not terminal after 60s", id)
	return jobs.Job{}
}

// fetchMetrics returns a server's Prometheus exposition.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(prom)
}

// coordTracer opens a coordinator tracer over a fresh artifact directory.
// Open it before testClusterFrontend so the front-end's drain cleanup runs
// while the tracer is still open.
func coordTracer(t *testing.T) (*trace.Tracer, string) {
	t.Helper()
	dir := t.TempDir()
	tr, err := trace.Open(trace.Options{Dir: dir, Proc: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr, dir
}

// sweepTrace drains the front-end so every span is on disk, requires the
// coordinator's trace to assemble with zero orphans and job id's
// cluster.sweep span to report a succeeded sweep with zero lost batches,
// and returns the span records.
func sweepTrace(t *testing.T, s *server, dir, id string) []trace.Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := trace.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Assemble(res.Spans).Err(); err != nil {
		t.Fatalf("coordinator trace incomplete: %v", err)
	}
	for _, rec := range res.Spans {
		if rec.Name == "cluster.sweep" && rec.Attrs["job"] == id {
			if rec.Attrs["lost"] != "0" || rec.Attrs["state"] != string(jobs.StateSucceeded) {
				t.Errorf("cluster.sweep attrs %v, want state succeeded and lost 0", rec.Attrs)
			}
			return res.Spans
		}
	}
	t.Fatalf("no cluster.sweep span for job %s", id)
	return nil
}

// metricValue extracts an unlabeled metric's value from Prometheus text.
func metricValue(t *testing.T, prom, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(prom, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, prom)
	return 0
}

// counterValue is metricValue for a counter that the registry exposes
// only once it has been incremented: an absent counter reads as 0.
func counterValue(t *testing.T, prom, name string) float64 {
	t.Helper()
	if !strings.Contains(prom, "\n"+name+" ") && !strings.HasPrefix(prom, name+" ") {
		return 0
	}
	return metricValue(t, prom, name)
}

// TestClusterFrontendInProcess pins the full wire path — coordinator API →
// cluster client → real worker handlers → checkpoint harvest → merged
// render — with every shard healthy, and the serving guarantees the
// coordinator shares with a worker: admission-time validation, idempotent
// dedup and the event stream.
func TestClusterFrontendInProcess(t *testing.T) {
	// The workers hold their first batch until the event stream below is
	// open, so the stream watches the sweep live and must end in a
	// terminal frame.
	streaming := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(streaming) }) }
	defer release() // a failed assertion must still unblock the drains
	var workers []string
	for i := 0; i < 3; i++ {
		_, ts := testServer(t, jobs.Options{Workers: 1,
			BatchHook: func(string, *harness.Checkpoint) { <-streaming }})
		workers = append(workers, ts.URL)
	}
	tr, traceDir := coordTracer(t)
	s, front := testClusterFrontend(t, jobs.Options{Tracer: tr, Idempotent: true}, workers...)

	resp := submit(t, front.URL, `{"experiment":"E99","quick":true,"seed":7}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Reason != "unknown_experiment" {
		t.Errorf("unknown experiment: %d %q, want 400 unknown_experiment", resp.StatusCode, er.Reason)
	}

	const spec = `{"experiment":"E4","quick":true,"seed":7}`
	resp = submit(t, front.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc jobs.SubmitResult
	decode(t, resp, &acc)
	resp = submit(t, front.URL, spec)
	var dup jobs.SubmitResult
	decode(t, resp, &dup)
	if !dup.Deduped || dup.ID != acc.ID {
		t.Errorf("duplicate submit %+v, want deduped onto %s", dup, acc.ID)
	}

	stream := openStream(t, front.URL, "", acc.ID)
	defer stream.Body.Close()
	release()
	events := readSSE(t, stream.Body)
	if len(events) < 2 || events[0].name != "snapshot" {
		t.Fatalf("event stream %+v, want a snapshot then a terminal frame", events)
	}
	if last := events[len(events)-1]; last.name != "terminal" || last.ev.State != jobs.StateSucceeded {
		t.Errorf("final frame %q %+v, want terminal succeeded", last.name, last.ev)
	}

	j := pollClusterJob(t, front.URL, acc.ID)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("cluster job %s: %s (%s)", acc.ID, j.State, j.Error)
	}
	if want := directRun(t, "E4", 7); j.Output != want {
		t.Errorf("cluster output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, j.Output)
	}
	if v := metricValue(t, fetchMetrics(t, front.URL), "locality_cluster_rows_lost"); v != 0 {
		t.Errorf("rows_lost metric = %v", v)
	}

	// Rows are coordinator-owned on the front-end.
	resp = submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7,"rows":{"mod":2,"keep":0}}`)
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Reason != "invalid_rows" {
		t.Errorf("rows submission: %d %q, want 400 invalid_rows", resp.StatusCode, er.Reason)
	}

	sweepTrace(t, s, traceDir, acc.ID)
}

// TestClusterRetention: a coordinator's job table is bounded like a
// worker's — past Retention terminal sweeps the oldest is evicted and no
// longer pollable.
func TestClusterRetention(t *testing.T) {
	var workers []string
	for i := 0; i < 2; i++ {
		_, ts := testServer(t, jobs.Options{Workers: 1})
		workers = append(workers, ts.URL)
	}
	_, front := testClusterFrontend(t, jobs.Options{Retention: 2}, workers...)

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		resp := submit(t, front.URL, fmt.Sprintf(`{"experiment":"E8","quick":true,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: %d", seed, resp.StatusCode)
		}
		var acc jobs.SubmitResult
		decode(t, resp, &acc)
		if j := pollClusterJob(t, front.URL, acc.ID); j.State != jobs.StateSucceeded {
			t.Fatalf("cluster job %s: %s (%s)", acc.ID, j.State, j.Error)
		}
		ids = append(ids, acc.ID)
	}

	resp, err := http.Get(front.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job %s: %d, want 404 after eviction", ids[0], resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	decode(t, resp, &list)
	terminal := 0
	for _, j := range list.Jobs {
		if j.State.Terminal() {
			terminal++
		}
	}
	if terminal > 2 {
		t.Errorf("coordinator lists %d terminal jobs, want at most 2", terminal)
	}
}

// TestClusterKillShardE2E is the acceptance run: three real worker
// localityd processes, one SIGKILLed mid-sweep (victim chosen by a seeded
// fault.ProcPlan), and the coordinator still produces the byte-identical
// table with zero batches lost — with the failover visible on /metrics
// and in the coordinator's trace.
func TestClusterKillShardE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	plan := fault.ProcPlan{Seed: 7, Victims: 1}
	victims := plan.VictimIndices(shards)
	if len(victims) != 1 {
		t.Fatalf("plan selected %v", victims)
	}
	victim := victims[0]
	t.Logf("fault plan: %s -> shard%d", plan, victim)

	procs := make([]*exec.Cmd, shards)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"LOCALITYD_E2E_WORKER=1",
			"LOCALITYD_E2E_PACE_MS=40",
			"LOCALITYD_E2E_CKDIR="+t.TempDir(),
		)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok {
				urls[i] = u
				break
			}
		}
		if urls[i] == "" {
			t.Fatalf("worker %d never announced its address", i)
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained
	}
	waitReady := func(u string) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("worker %s never became ready", u)
	}
	for _, u := range urls {
		waitReady(u)
	}

	tr, traceDir := coordTracer(t)
	s, front := testClusterFrontend(t, jobs.Options{Tracer: tr}, urls...)

	resp := submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc jobs.SubmitResult
	decode(t, resp, &acc)

	// SIGKILL the victim once it has committed KillAfter batches — the
	// death lands mid-sweep, with real uncommitted work left to fail over.
	killed := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(urls[victim] + "/v1/jobs")
			if err != nil {
				killed <- fmt.Errorf("victim unreachable before kill: %v", err)
				return
			}
			var list struct {
				Jobs []jobs.Job `json:"jobs"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = json.Unmarshal(body, &list)
			for _, j := range list.Jobs {
				if j.BatchesDone >= plan.KillAfter() {
					killed <- procs[victim].Process.Signal(syscall.SIGKILL)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		killed <- fmt.Errorf("victim never committed %d batches", plan.KillAfter())
	}()
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	_, _ = procs[victim].Process.Wait()
	t.Logf("killed shard%d mid-sweep", victim)

	j := pollClusterJob(t, front.URL, acc.ID)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("cluster job after kill: %s (%s)", j.State, j.Error)
	}
	if want := directRun(t, "E4", 7); j.Output != want {
		t.Errorf("post-kill output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, j.Output)
	}

	// The coordinator's /metrics must show the failover: the shard marked
	// unhealthy, rows retried or recomputed, and zero rows lost.
	prom := fetchMetrics(t, front.URL)
	if v := metricValue(t, prom, "locality_cluster_rows_lost"); v != 0 {
		t.Errorf("rows_lost metric = %v", v)
	}
	if v := metricValue(t, prom, "locality_cluster_failovers_total"); v < 1 {
		t.Errorf("failovers_total = %v, want >= 1", v)
	}
	victimGauge := fmt.Sprintf(`locality_cluster_shard_healthy{shard="shard%d"} 0`, victim)
	if !strings.Contains(prom, victimGauge) {
		t.Errorf("metrics missing %q:\n%s", victimGauge, prom)
	}
	// A failover may be all retries or all recomputes, and a counter
	// never incremented is not exposed, so either may be absent.
	retried := counterValue(t, prom, "locality_cluster_batches_retried_total")
	recomputed := counterValue(t, prom, "locality_cluster_batches_recomputed_total")
	if retried+recomputed < 1 {
		t.Errorf("retried %v + recomputed %v batches; the victim's work went somewhere", retried, recomputed)
	}

	// The coordinator's trace carries the failover: at least one
	// cluster.failover span, and a cluster.sweep span reporting zero lost
	// batches.
	failovers := 0
	for _, rec := range sweepTrace(t, s, traceDir, acc.ID) {
		if rec.Name == "cluster.failover" {
			failovers++
		}
	}
	if failovers < 1 {
		t.Error("no cluster.failover span in the coordinator trace")
	}
}
