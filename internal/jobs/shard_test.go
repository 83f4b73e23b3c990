package jobs_test

// Sharded-job and robustness-satellite coverage: Spec.Rows turns a job into
// one shard of a cluster sweep whose product is its checkpoint; List order
// is deterministic.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"testing"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs/trace"
)

// TestShardedJobsMergeByteIdentical runs a sweep as three sharded jobs,
// merges their checkpoints with Adopt, and replays the merged checkpoint —
// the rebuilt table must match the direct run byte for byte. This is the
// single-process version of the coordinator's whole job.
func TestShardedJobsMergeByteIdentical(t *testing.T) {
	spec := jobs.Spec{Experiment: "E4", Quick: true, Seed: 7}
	want, total := runDirect(t, spec)
	const shards = 3
	if total < shards {
		t.Fatalf("E4 records %d batches; need >= %d", total, shards)
	}
	dir := t.TempDir()
	p := jobs.New(jobs.Options{Workers: shards, CheckpointDir: dir})

	ids := make([]string, shards)
	for k := range ids {
		s := spec
		s.Rows = &jobs.RowSpec{Mod: shards, Keep: k}
		id, err := p.Submit(s)
		if err != nil {
			t.Fatalf("submit shard %d: %v", k, err)
		}
		ids[k] = id
	}

	merged := &harness.Checkpoint{Experiment: spec.Experiment, Seed: spec.Seed, Quick: spec.Quick}
	for k, id := range ids {
		j := waitTerminal(t, p, id)
		if j.State != jobs.StateSucceeded {
			t.Fatalf("shard %d: state %s, error %q", k, j.State, j.Error)
		}
		if j.Output != "" {
			t.Errorf("shard %d rendered a table; sharded jobs must stay table-less", k)
		}
		ck, ok := p.Checkpoint(id)
		if !ok || ck == nil {
			t.Fatalf("shard %d: no checkpoint (known=%v)", k, ok)
		}
		if ck.TotalBatches != total {
			t.Errorf("shard %d: TotalBatches %d, want %d", k, ck.TotalBatches, total)
		}
		if j.BatchesDone != ck.Computed() {
			t.Errorf("shard %d: BatchesDone %d, checkpoint holds %d", k, j.BatchesDone, ck.Computed())
		}
		if _, err := merged.Adopt(ck, id); err != nil {
			t.Fatalf("adopt shard %d: %v", k, err)
		}
	}
	if !merged.Complete() {
		t.Fatalf("merged checkpoint incomplete: %d/%d", merged.Computed(), merged.TotalBatches)
	}

	driver, _ := harness.ByID(spec.Experiment)
	tbl := driver(harness.Config{Quick: spec.Quick, Seed: spec.Seed, Resume: merged})
	var buf bytes.Buffer
	tbl.Render(&buf)
	if buf.String() != want {
		t.Errorf("merged shard replay differs from direct run:\n--- want ---\n%s--- got ---\n%s", want, buf.String())
	}

	// Sharded success keeps the checkpoint files: the checkpoint is the
	// product, and a resubmitted shard must replay to instant completion.
	if entries, _ := os.ReadDir(dir); len(entries) != shards {
		t.Errorf("checkpoint file count %d after success, want %d", len(entries), shards)
	}
	closePool(t, p)

	fresh := 0
	p2 := jobs.New(jobs.Options{Workers: 1, CheckpointDir: dir,
		BatchHook: func(string, *harness.Checkpoint) { fresh++ }})
	s := spec
	s.Rows = &jobs.RowSpec{Mod: shards, Keep: 0}
	id, err := p2.Submit(s)
	if err != nil {
		t.Fatalf("resubmit shard 0: %v", err)
	}
	if j := waitTerminal(t, p2, id); j.State != jobs.StateSucceeded {
		t.Fatalf("resubmitted shard: state %s, error %q", j.State, j.Error)
	}
	if fresh != 0 {
		t.Errorf("resubmitted shard recomputed %d batches, want 0", fresh)
	}
	closePool(t, p2)
}

// TestRowSpecSelection pins the three-filter selection semantics and the
// canonical checkpoint key.
func TestRowSpecSelection(t *testing.T) {
	cases := []struct {
		spec *jobs.RowSpec
		sel  []int // selected indices among 0..5
		key  string
	}{
		{nil, []int{0, 1, 2, 3, 4, 5}, ""},
		{&jobs.RowSpec{}, []int{0, 1, 2, 3, 4, 5}, "m0k0"},
		{&jobs.RowSpec{Mod: 3, Keep: 1}, []int{1, 4}, "m3k1"},
		{&jobs.RowSpec{Mod: 3, Keep: 1, Skip: []int{4}}, []int{1}, "m3k1s4"},
		{&jobs.RowSpec{Include: []int{5, 0, 5}}, []int{0, 5}, "m0k0i0.5"},
		{&jobs.RowSpec{Mod: 2, Include: []int{1, 3}, Skip: []int{3}}, []int{1}, "m2k0i1.3s3"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Errorf("%+v: validate: %v", c.spec, err)
		}
		var got []int
		for i := 0; i < 6; i++ {
			if c.spec.Selected(i) {
				got = append(got, i)
			}
		}
		if !reflect.DeepEqual(got, c.sel) {
			t.Errorf("%+v: selected %v, want %v", c.spec, got, c.sel)
		}
		if k := c.spec.Key(); k != c.key {
			t.Errorf("%+v: key %q, want %q", c.spec, k, c.key)
		}
	}
}

// TestInvalidRowSpecShed: malformed row specs are shed at submission with a
// structured reason, like unknown experiments.
func TestInvalidRowSpecShed(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 1})
	defer closePool(t, p)
	for _, rows := range []*jobs.RowSpec{
		{Mod: -1},
		{Mod: 3, Keep: 3},
		{Mod: 0, Keep: 2},
		{Include: []int{-1}},
		{Skip: []int{0, -2}},
	} {
		_, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Rows: rows})
		var shed *jobs.ShedError
		if !errors.As(err, &shed) || !errors.Is(err, jobs.ErrInvalidRowSpec) {
			t.Errorf("rows %+v: got %v, want ShedError wrapping ErrInvalidRowSpec", rows, err)
		}
	}
}

// TestExecuteReplacesDriver: a pool with an executor hands it each job —
// with the submitter's raw key — instead of running the local driver, keeps
// no local checkpoint, isolates an executor panic like a driver panic, and
// sheds client-supplied Rows because the executor owns sharding.
func TestExecuteReplacesDriver(t *testing.T) {
	dir := t.TempDir()
	keys := make(chan string, 2)
	p := jobs.New(jobs.Options{Workers: 1, CheckpointDir: dir,
		Execute: func(ctx context.Context, id string, spec jobs.Spec, apiKey string, _ trace.SpanContext) (string, int, error) {
			keys <- apiKey
			if spec.Seed == 2 {
				panic("executor fault")
			}
			return "table " + spec.Experiment, 5, nil
		}})
	defer closePool(t, p)

	res, err := p.SubmitTenant("key-a", jobs.Spec{Experiment: "E4", Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j := waitTerminal(t, p, res.ID)
	if j.State != jobs.StateSucceeded || j.Output != "table E4" || j.BatchesDone != 5 {
		t.Errorf("executed job %+v, want succeeded with the executor's output and 5 batches", j)
	}
	if k := <-keys; k != "key-a" {
		t.Errorf("executor saw api key %q, want key-a", k)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("executed job left %d checkpoint files", len(files))
	}

	id, err := p.Submit(jobs.Spec{Experiment: "E4", Quick: true, Seed: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if j := waitTerminal(t, p, id); j.State != jobs.StateFailed || j.ErrorKind != "panic" {
		t.Errorf("panicking executor: state %s kind %q, want failed/panic", j.State, j.ErrorKind)
	}

	_, err = p.Submit(jobs.Spec{Experiment: "E4", Quick: true, Rows: &jobs.RowSpec{Mod: 2}})
	if !errors.Is(err, jobs.ErrInvalidRowSpec) {
		t.Errorf("rows on an executing pool: %v, want ErrInvalidRowSpec", err)
	}
}

// TestListDeterministicOrder: List returns jobs in submission order, byte
// stable across calls — the coordinator's aggregation and the /v1/jobs
// endpoint depend on it.
func TestListDeterministicOrder(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 16)
	p := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8,
		BatchHook: func(id string, ck *harness.Checkpoint) {
			if id == "job-0" && len(ck.Batches) == 1 {
				held <- struct{}{}
				<-hold
			}
		}})
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		id, err := p.Submit(jobs.Spec{Experiment: "E8", Quick: true, Seed: seed})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, id)
	}
	<-held // pool is mid-job; List must still be stable
	for call := 0; call < 2; call++ {
		list := p.List()
		if len(list) != len(ids) {
			t.Fatalf("List returned %d jobs, want %d", len(list), len(ids))
		}
		for i, j := range list {
			if j.ID != ids[i] {
				t.Fatalf("call %d: List[%d] = %s, want %s (submission order)", call, i, j.ID, ids[i])
			}
		}
	}
	close(hold)
	closePool(t, p)
}
