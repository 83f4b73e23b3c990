package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
)

// runDirect produces the unsupervised ground truth for a spec: the rendered
// table bytes and the number of row batches the sweep records.
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

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, p *jobs.Pool, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := p.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := p.Get(id)
	t.Fatalf("job %s not terminal after 30s (state %s)", id, j.State)
	return jobs.Job{}
}

// checkGoroutines asserts the goroutine count settles back near the
// baseline: the pool must reap every goroutine it started.
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

func closePool(t *testing.T, p *jobs.Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestSubmitRunSucceeds(t *testing.T) {
	spec := jobs.Spec{Experiment: "E8", Quick: true, Seed: 7}
	want, _ := runDirect(t, spec)
	before := runtime.NumGoroutine()
	p := jobs.New(jobs.Options{Workers: 2})
	id, err := p.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p, id)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("state %s, error %q", j.State, j.Error)
	}
	if j.Output != want {
		t.Errorf("supervised output differs from direct run:\n%s", j.Output)
	}
	if j.Attempts != 1 || j.BatchesDone == 0 {
		t.Errorf("attempts %d, batches %d", j.Attempts, j.BatchesDone)
	}
	closePool(t, p)
	checkGoroutines(t, before)
}

// TestKillResubmitByteIdentical is the acceptance scenario: a sweep is
// killed mid-run (pool shut down after the job is cancelled), a fresh pool
// over the same checkpoint directory resumes it, and the final output is
// byte-identical to an uninterrupted run — recomputing only the missing
// rows.
func TestKillResubmitByteIdentical(t *testing.T) {
	spec := jobs.Spec{Experiment: "E12", Quick: true, Seed: 11}
	want, total := runDirect(t, spec)
	if total < 3 {
		t.Fatalf("E12 records %d batches; need >= 3", total)
	}
	kill := total / 2
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	var p1 *jobs.Pool
	p1 = jobs.New(jobs.Options{Workers: 1, CheckpointDir: dir,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if len(ck.Batches) == kill {
				p1.Cancel(id)
			}
		}})
	id, err := p1.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p1, id)
	if j.State != jobs.StateCancelled {
		t.Fatalf("first run: state %s (error %q), want cancelled", j.State, j.Error)
	}
	if j.BatchesDone != kill || j.ErrorKind != "cancelled" {
		t.Fatalf("first run: %d batches checkpointed, kind %q", j.BatchesDone, j.ErrorKind)
	}
	closePool(t, p1)

	// Second pool, same directory: the resubmitted job resumes.
	fresh := 0
	p2 := jobs.New(jobs.Options{Workers: 1, CheckpointDir: dir,
		BatchHook: func(string, *harness.Checkpoint) { fresh++ }})
	id2, err := p2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	j2 := waitTerminal(t, p2, id2)
	if j2.State != jobs.StateSucceeded {
		t.Fatalf("resumed run: state %s, error %q", j2.State, j2.Error)
	}
	if j2.Output != want {
		t.Errorf("resumed output not byte-identical:\n--- want ---\n%s--- got ---\n%s", want, j2.Output)
	}
	if fresh != total-kill {
		t.Errorf("resume recomputed %d batches, want %d", fresh, total-kill)
	}
	// Success clears the checkpoint file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint dir not cleared after success: %v", entries)
	}
	closePool(t, p2)
	checkGoroutines(t, before)
}

// TestPanicIsolation: a persistently panicking job fails with a structured
// *JobError classification and the worker survives to run the next job.
func TestPanicIsolation(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 1,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if id == "job-0" {
				panic("chaos: persistent fault")
			}
		}})
	id, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p, id)
	if j.State != jobs.StateFailed || j.ErrorKind != "panic" {
		t.Fatalf("state %s kind %q, want failed/panic", j.State, j.ErrorKind)
	}
	// The worker that recovered the panic still runs the next job.
	id2, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 2})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if j2 := waitTerminal(t, p, id2); j2.State != jobs.StateSucceeded {
		t.Fatalf("job after panic: state %s, error %q", j2.State, j2.Error)
	}
	closePool(t, p)
}

// TestQueueFullShed: the bounded queue sheds excess submissions with a
// structured reason instead of buffering or blocking.
func TestQueueFullShed(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 16)
	p := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if len(ck.Batches) == 1 {
				held <- struct{}{}
				<-hold
			}
		}})
	idA, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-held // worker is parked inside job A
	idB, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 2})
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	_, err = p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 3})
	if err == nil {
		t.Fatal("third submission accepted by a full queue")
	}
	var shed *jobs.ShedError
	if !errors.As(err, &shed) || !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("shed error %v does not classify as ErrQueueFull", err)
	}
	if shed.QueueLen != 1 || shed.QueueCap != 1 {
		t.Errorf("shed reports queue %d/%d", shed.QueueLen, shed.QueueCap)
	}
	close(hold)
	if j := waitTerminal(t, p, idA); j.State != jobs.StateSucceeded {
		t.Errorf("job A: %s (%s)", j.State, j.Error)
	}
	if j := waitTerminal(t, p, idB); j.State != jobs.StateSucceeded {
		t.Errorf("job B: %s (%s)", j.State, j.Error)
	}
	if list := p.List(); len(list) != 2 || list[0].ID != idA || list[1].ID != idB {
		t.Errorf("List order wrong: %+v", list)
	}
	closePool(t, p)
}

// TestUnknownExperimentShed: validation happens at submission time.
func TestUnknownExperimentShed(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 1})
	_, err := p.Submit(jobs.Spec{Experiment: "E99"})
	if !errors.Is(err, jobs.ErrUnknownExperiment) {
		t.Fatalf("got %v, want ErrUnknownExperiment", err)
	}
	closePool(t, p)
}

// TestSubmitWhileDraining: shutdown flips submissions to structured
// rejection.
func TestSubmitWhileDraining(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 1})
	closePool(t, p)
	if !p.Draining() {
		t.Fatal("pool not draining after Close")
	}
	_, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true})
	if !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

// TestCancelQueuedJob: a job cancelled before a worker picks it up never
// runs.
func TestCancelQueuedJob(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 16)
	p := jobs.New(jobs.Options{Workers: 1, QueueDepth: 2,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if id == "job-0" && len(ck.Batches) == 1 {
				held <- struct{}{}
				<-hold
			}
		}})
	if _, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 1}); err != nil {
		t.Fatalf("submit A: %v", err)
	}
	<-held
	idB, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: 2})
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if err := p.Cancel(idB); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := p.Cancel("job-404"); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Errorf("cancel unknown: %v", err)
	}
	close(hold)
	j := waitTerminal(t, p, idB)
	if j.State != jobs.StateCancelled || j.BatchesDone != 0 || j.Attempts != 0 {
		t.Fatalf("queued-cancelled job ran: %+v", j)
	}
	closePool(t, p)
}

// TestJobDeadline: Spec.Timeout bounds the run and classifies as a
// deadline failure, not a cancellation.
func TestJobDeadline(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 1})
	id, err := p.Submit(jobs.Spec{Experiment: "E12", Quick: true, Seed: 3, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p, id)
	if j.State != jobs.StateFailed || j.ErrorKind != "deadline" {
		t.Fatalf("state %s kind %q, want failed/deadline", j.State, j.ErrorKind)
	}
	if j.Attempts > 1 {
		t.Errorf("deadline job made %d attempts, want at most 1", j.Attempts)
	}
	closePool(t, p)
}

// TestDrainForcedCancellation: a drain deadline that expires with work
// still running force-cancels it — the job lands cancelled with its
// progress checkpointed, every worker goroutine exits, and Close reports
// the forced drain.
func TestDrainForcedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	started := make(chan struct{}, 16)
	p := jobs.New(jobs.Options{Workers: 1, CheckpointDir: dir,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if len(ck.Batches) == 1 {
				started <- struct{}{}
			}
			time.Sleep(30 * time.Millisecond)
		}})
	id, err := p.Submit(jobs.Spec{Experiment: "E12", Quick: true, Seed: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	err = p.Close(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded cause", err)
	}
	j, _ := p.Get(id)
	if j.State != jobs.StateCancelled {
		t.Fatalf("state %s (error %q), want cancelled", j.State, j.Error)
	}
	if j.BatchesDone == 0 {
		t.Error("no progress checkpointed before forced cancel")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("checkpoint file count %d, want 1", len(entries))
	}
	checkGoroutines(t, before)
	// A second Close is a no-op wait, not a double-close panic.
	if err := p.Close(context.Background()); err != nil {
		t.Errorf("idempotent close: %v", err)
	}
}

// TestParallelSpecByteIdentical asserts Spec.Workers changes only wall-clock
// behavior: a parallel job's output and checkpoint trajectory are
// byte-identical to the sequential job's.
func TestParallelSpecByteIdentical(t *testing.T) {
	want, wantBatches := runDirect(t, jobs.Spec{Experiment: "E4", Quick: true, Seed: 7})
	before := runtime.NumGoroutine()
	p := jobs.New(jobs.Options{Workers: 1})
	id, err := p.Submit(jobs.Spec{Experiment: "E4", Quick: true, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p, id)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("state %s, error %q", j.State, j.Error)
	}
	if j.Output != want {
		t.Errorf("parallel job output differs from sequential direct run:\n%s", j.Output)
	}
	if j.BatchesDone != wantBatches {
		t.Errorf("parallel job checkpointed %d batches, want %d", j.BatchesDone, wantBatches)
	}
	closePool(t, p)
	checkGoroutines(t, before)
}
