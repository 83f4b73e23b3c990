package main

// Trace acceptance e2e: three real worker localityd processes and a
// coordinator front-end all append spans to ONE shared artifact
// directory (distinct proc names), one worker is SIGKILLed mid-sweep,
// and the merged artifacts still assemble into a complete causal tree —
// zero orphaned spans — with the failover and every serving layer
// visible under the job's identity-derived trace ID.
//
// Zero orphans under SIGKILL is a designed property, not luck: span
// records are written only at End, so every long-lived span parents to
// a context that was durably on disk before it started (see job.root in
// internal/jobs). The killed worker loses at most its in-flight job.run
// record and a torn final line, both of which the loader tolerates.
//
// When TRACE_ARTIFACT_DIR names a directory, the merged artifacts are
// copied there — make race then runs localtrace over the copy, and CI
// uploads it.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"locality/internal/fault"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
)

func TestClusterTraceE2E(t *testing.T) {
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

	traceDir := t.TempDir()
	procs := make([]*exec.Cmd, shards)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"LOCALITYD_E2E_WORKER=1",
			"LOCALITYD_E2E_PACE_MS=40",
			"LOCALITYD_E2E_CKDIR="+t.TempDir(),
			"LOCALITYD_E2E_TRACEDIR="+traceDir,
			fmt.Sprintf("LOCALITYD_E2E_TRACEPROC=worker%d", i),
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
		go io.Copy(io.Discard, stdout)
	}
	for _, u := range urls {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never became ready", u)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The coordinator front-end traces as proc "coord" into the same dir.
	coordTr, err := trace.Open(trace.Options{Dir: traceDir, Proc: "coord", Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s, front := testClusterFrontend(t, jobs.Options{Tracer: coordTr}, urls...)

	resp := submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc jobs.SubmitResult
	decode(t, resp, &acc)

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
		t.Errorf("post-kill output differs from single-process run (tracing must not change bytes)")
	}

	// Drain so the executor has returned and the cluster.sweep span record —
	// the parent of every shard-side root — is on disk. Worker tracers are never
	// closed (two are about to be SIGKILLed by cleanup anyway); unbuffered
	// appends mean everything a worker finished is already durable.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	res, err := trace.Load(traceDir)
	if err != nil {
		t.Fatalf("loading merged artifacts: %v", err)
	}
	forest := trace.Assemble(res.Spans)
	if err := forest.Err(); err != nil {
		t.Fatalf("causal tree incomplete after kill: %v", err)
	}
	t.Logf("assembled %d spans from %d files (%d torn tails) into %d traces",
		len(res.Spans), res.Files, res.Truncated, len(forest.Traces))

	// The sweep's trace ID is derived from the spec identity — find it
	// without knowing anything about the run.
	spec := jobs.Spec{Experiment: "E4", Quick: true, Seed: 7}
	id := trace.IDFromIdentity(spec.IdentityKey())
	var tree *trace.Tree
	for _, tr := range forest.Traces {
		if tr.ID == id {
			tree = tr
		}
	}
	if tree == nil {
		t.Fatalf("no trace %s (identity-derived) among %d traces", id, len(forest.Traces))
	}

	// Every serving layer must appear in the one causal tree: coordinator
	// HTTP + sweep + dispatch + failover, worker HTTP + admission + queue +
	// execution + batch commits, and the deterministic endgame replay.
	names := tree.Names()
	for _, want := range []string{
		"http.submit", "cluster.sweep", "shard.dispatch", "cluster.failover",
		"cluster.endgame", "pool.admit", "queue.wait", "job.run", "batch.commit",
	} {
		if !slices.Contains(names, want) {
			t.Errorf("trace %s missing span type %q (have %v)", id, want, names)
		}
	}
	// Spans from all surviving procs plus the victim's pre-kill work.
	procsSeen := make(map[string]bool)
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		procsSeen[n.Proc] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tree.Roots {
		walk(r)
	}
	if !procsSeen["coord"] || len(procsSeen) < 3 {
		t.Errorf("trace spans cover procs %v, want coord plus at least two workers", procsSeen)
	}
	if cp := tree.CriticalPath(); len(cp) == 0 {
		t.Error("empty critical path")
	}

	if dst := os.Getenv("TRACE_ARTIFACT_DIR"); dst != "" {
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(traceDir, "*.trace.jsonl"))
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
