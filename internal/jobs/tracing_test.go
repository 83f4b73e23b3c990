package jobs_test

// Tracing differentials at the pool layer: enabling the tracer must not
// change a single output byte (the telemetry-inertness contract), and the
// artifact a traced pool writes must assemble into complete causal trees
// rooted at each job's identity-derived trace ID, with every simulator
// round accounted to a batch.commit span.

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs/trace"
	"locality/internal/sim"
)

// TestTracerByteIdentity runs the same specs through a plain pool and a
// traced pool (Workers>1, parallel rows included) and requires identical
// bytes, then asserts the trace artifact assembles orphan-free with every
// pool-layer span type present.
func TestTracerByteIdentity(t *testing.T) {
	specs := []jobs.Spec{
		{Experiment: "E2", Quick: true, Seed: 7},
		{Experiment: "E4", Quick: true, Seed: 11},
		{Experiment: "E8", Quick: true, Seed: 7, Workers: 2},
		{Experiment: "E12", Quick: true, Seed: 3},
	}

	runPool := func(opts jobs.Options) map[string]string {
		out := make(map[string]string)
		p := jobs.New(opts)
		defer closePool(t, p)
		for _, spec := range specs {
			id, err := p.Submit(spec)
			if err != nil {
				t.Fatalf("submit %s: %v", spec.Experiment, err)
			}
			j := waitTerminal(t, p, id)
			if j.State != jobs.StateSucceeded {
				t.Fatalf("%s: state %s (%s)", spec.Experiment, j.State, j.Error)
			}
			out[spec.Experiment] = j.Output
		}
		return out
	}

	plain := runPool(jobs.Options{Workers: 2})

	traceDir := t.TempDir()
	tr, err := trace.Open(trace.Options{Dir: traceDir, Proc: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	traced := runPool(jobs.Options{Workers: 2, Tracer: tr})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	for _, spec := range specs {
		want, _ := runDirect(t, spec)
		if plain[spec.Experiment] != want {
			t.Errorf("%s: plain pool output differs from direct run", spec.Experiment)
		}
		if traced[spec.Experiment] != plain[spec.Experiment] {
			t.Errorf("%s: tracing changed output bytes", spec.Experiment)
		}
	}

	res, err := trace.Load(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	forest := trace.Assemble(res.Spans)
	if err := forest.Err(); err != nil {
		t.Fatalf("traced pool artifact incomplete: %v", err)
	}
	for _, spec := range specs {
		id := trace.IDFromIdentity(spec.IdentityKey())
		var tree *trace.Tree
		for _, tt := range forest.Traces {
			if tt.ID == id {
				tree = tt
			}
		}
		if tree == nil {
			t.Fatalf("%s: no trace %s among %d traces", spec.Experiment, id, len(forest.Traces))
		}
		names := tree.Names()
		for _, want := range []string{"pool.admit", "queue.wait", "job.run", "batch.commit"} {
			if !slices.Contains(names, want) {
				t.Errorf("%s trace missing span %q (have %v)", spec.Experiment, want, names)
			}
		}
		if cp := tree.CriticalPath(); len(cp) == 0 {
			t.Errorf("%s: empty critical path", spec.Experiment)
		}
	}
}

// roundCounter is a recording harness.Observer: it counts the simulator
// rounds and messages a sweep reports, from concurrent row workers too.
type roundCounter struct{ rounds, messages atomic.Int64 }

func (c *roundCounter) SimRound(_ string, s sim.RoundStats) {
	c.rounds.Add(1)
	c.messages.Add(s.Messages)
}

func (c *roundCounter) BatchDone(string, int, int) {}

// TestBatchCommitRoundCounts: the rounds and messages attrs summed over a
// job's batch.commit spans equal what a recording observer counts for the
// same sweep, sequentially and with parallel row workers — every round
// lands in exactly one commit interval.
func TestBatchCommitRoundCounts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := jobs.Spec{Experiment: "E2", Quick: true, Seed: 7, Workers: workers}
			driver, _ := harness.ByID(spec.Experiment)
			var want roundCounter
			driver(harness.Config{Quick: spec.Quick, Seed: spec.Seed, Workers: workers, Obs: &want})
			if want.rounds.Load() == 0 {
				t.Fatal("recording observer saw no rounds")
			}

			dir := t.TempDir()
			tr, err := trace.Open(trace.Options{Dir: dir, Proc: "pool"})
			if err != nil {
				t.Fatal(err)
			}
			p := jobs.New(jobs.Options{Workers: 1, Tracer: tr})
			id, err := p.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if j := waitTerminal(t, p, id); j.State != jobs.StateSucceeded {
				t.Fatalf("state %s (%s)", j.State, j.Error)
			}
			closePool(t, p)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			res, err := trace.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			var rounds, messages int64
			commits := 0
			for _, rec := range res.Spans {
				if rec.Name != "batch.commit" {
					continue
				}
				commits++
				for key, sum := range map[string]*int64{"rounds": &rounds, "messages": &messages} {
					v, err := strconv.ParseInt(rec.Attrs[key], 10, 64)
					if err != nil {
						t.Fatalf("batch.commit %s attr %q: %v", key, rec.Attrs[key], err)
					}
					*sum += v
				}
			}
			if commits == 0 {
				t.Fatal("no batch.commit spans")
			}
			if rounds != want.rounds.Load() || messages != want.messages.Load() {
				t.Errorf("batch.commit spans sum to %d rounds / %d messages, observer counted %d / %d",
					rounds, messages, want.rounds.Load(), want.messages.Load())
			}
		})
	}
}
