package harness

// Sharded-sweep tests: Config.RowSelect computes only a residue class of a
// sweep's batches, records the rest as checkpoint holes, and ends with a
// panicked *ShardDoneError. Merging the shard checkpoints with Adopt and
// replaying the merged checkpoint must reproduce the unsharded table byte
// for byte — the cluster determinism argument of DESIGN.md §10.

import (
	"encoding/json"
	"errors"
	"testing"
)

// runShard drives one shard of a sharded sweep to its ShardDoneError and
// returns the final sparse checkpoint.
func runShard(t *testing.T, id string, cfg Config) *Checkpoint {
	t.Helper()
	driver := lookupDriver(t, id)
	var ck *Checkpoint
	func() {
		defer func() {
			r := recover()
			sde, ok := r.(*ShardDoneError)
			if !ok {
				t.Fatalf("sharded sweep ended with %v, want *ShardDoneError", r)
			}
			if !errors.Is(sde, ErrShardDone) {
				t.Fatalf("ShardDoneError does not classify as ErrShardDone")
			}
			ck = sde.Checkpoint
		}()
		driver(cfg)
		t.Fatalf("sharded sweep returned without panicking ShardDoneError")
	}()
	return ck
}

// residue selects the batches of shard k out of n.
func residue(k, n int) func(int) bool {
	return func(i int) bool { return i%n == k }
}

// TestShardedSweepMergesByteIdentical is the core round trip: shard a sweep
// three ways, adopt the shard checkpoints into one merged checkpoint, and
// replay it — the rendered table must be byte-identical to the unsharded
// run, with zero batches recomputed.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	const id, seed = "E4", uint64(7)
	want := renderTable(lookupDriver(t, id)(Config{Quick: true, Seed: seed}))

	const shards = 3
	cks := make([]*Checkpoint, shards)
	for k := 0; k < shards; k++ {
		cks[k] = runShard(t, id, Config{Quick: true, Seed: seed, RowSelect: residue(k, shards)})
	}
	total := cks[0].TotalBatches
	if total < shards {
		t.Fatalf("%s records %d batches; need >= %d for the test to mean anything", id, total, shards)
	}

	merged := &Checkpoint{Experiment: id, Seed: seed, Quick: true}
	for k, ck := range cks {
		if ck.TotalBatches != total || len(ck.Batches) != total {
			t.Fatalf("shard %d checkpoint: total %d len %d, want %d", k, ck.TotalBatches, len(ck.Batches), total)
		}
		for i, b := range ck.Batches {
			if mine := i%shards == k; (b != nil) != mine {
				t.Fatalf("shard %d batch %d: computed=%v, want %v", k, i, b != nil, mine)
			}
		}
		adopted, err := merged.Adopt(ck, "shard")
		if err != nil {
			t.Fatalf("adopt shard %d: %v", k, err)
		}
		if want := (total + shards - 1 - k) / shards; len(adopted) != want {
			t.Errorf("shard %d adopted %d batches, want %d", k, len(adopted), want)
		}
	}
	if !merged.Complete() {
		t.Fatalf("merged checkpoint incomplete: %d/%d computed", merged.Computed(), merged.TotalBatches)
	}

	fresh := 0
	tbl := lookupDriver(t, id)(Config{Quick: true, Seed: seed, Resume: merged,
		OnBatch: func(*Checkpoint) { fresh++ }})
	if got := renderTable(tbl); string(got) != string(want) {
		t.Errorf("merged replay differs from unsharded run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if fresh != 0 {
		t.Errorf("merged replay recomputed %d batches, want 0", fresh)
	}
}

// TestShardedParallelCheckpointIdentical: a shard computed with Workers=4
// produces the same checkpoint JSON as its sequential twin, holes included —
// parallel speculation keeps sharded commits in row-index order.
func TestShardedParallelCheckpointIdentical(t *testing.T) {
	const id, seed = "E4", uint64(9)
	seq := runShard(t, id, Config{Quick: true, Seed: seed, RowSelect: residue(1, 3)})
	par := runShard(t, id, Config{Quick: true, Seed: seed, RowSelect: residue(1, 3), Workers: 4})
	sj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Errorf("parallel shard checkpoint differs:\nseq: %s\npar: %s", sj, pj)
	}
}

// TestSparseResumeRecomputesHoles: replaying a merged checkpoint that lost a
// shard recomputes exactly the holes and still renders the unsharded bytes —
// the coordinator's zero-rows-lost endgame.
func TestSparseResumeRecomputesHoles(t *testing.T) {
	const id, seed = "E4", uint64(7)
	want := renderTable(lookupDriver(t, id)(Config{Quick: true, Seed: seed}))

	const shards = 3
	merged := &Checkpoint{Experiment: id, Seed: seed, Quick: true}
	var total int
	for k := 0; k < shards-1; k++ { // shard 2 "died": its batches are never adopted
		ck := runShard(t, id, Config{Quick: true, Seed: seed, RowSelect: residue(k, shards)})
		total = ck.TotalBatches
		if _, err := merged.Adopt(ck, "shard"); err != nil {
			t.Fatalf("adopt: %v", err)
		}
	}
	merged.TotalBatches = total
	if merged.Complete() {
		t.Fatal("merged checkpoint unexpectedly complete with a missing shard")
	}
	holes := total - merged.Computed()

	fresh := 0
	tbl := lookupDriver(t, id)(Config{Quick: true, Seed: seed, Resume: merged,
		OnBatch: func(*Checkpoint) { fresh++ }})
	if got := renderTable(tbl); string(got) != string(want) {
		t.Errorf("sparse resume differs from unsharded run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if fresh != holes {
		t.Errorf("sparse resume recomputed %d batches, want %d (the holes)", fresh, holes)
	}
}

// TestSparseResumeParallel: the hole-recompute endgame also works under
// Workers>1, where replays queue behind unfinished parallel computes.
func TestSparseResumeParallel(t *testing.T) {
	const id, seed = "E4", uint64(7)
	want := renderTable(lookupDriver(t, id)(Config{Quick: true, Seed: seed}))
	ck := runShard(t, id, Config{Quick: true, Seed: seed, RowSelect: residue(0, 2)})
	merged := &Checkpoint{Experiment: id, Seed: seed, Quick: true}
	if _, err := merged.Adopt(ck, "s0"); err != nil {
		t.Fatal(err)
	}
	tbl := lookupDriver(t, id)(Config{Quick: true, Seed: seed, Resume: merged, Workers: 4})
	if got := renderTable(tbl); string(got) != string(want) {
		t.Errorf("parallel sparse resume differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestAdoptDetectsDivergence: two checkpoints claiming different rows for
// the same batch index is a determinism violation and must fail loudly.
func TestAdoptDetectsDivergence(t *testing.T) {
	a := &Checkpoint{Experiment: "E4", Seed: 1, Quick: true,
		Batches: [][][]string{{{"1", "2"}}}}
	b := &Checkpoint{Experiment: "E4", Seed: 1, Quick: true,
		Batches: [][][]string{{{"1", "DIFFERENT"}}}}
	if _, err := a.Adopt(b, "evil-shard"); !errors.Is(err, ErrCheckpointDiverged) {
		t.Fatalf("divergent adopt: %v, want ErrCheckpointDiverged", err)
	}
	// Identical batches adopt cleanly (idempotent merge) and identity
	// mismatches are rejected.
	c := &Checkpoint{Experiment: "E4", Seed: 1, Quick: true,
		Batches: [][][]string{{{"1", "2"}}, {{"3"}}}}
	adopted, err := a.Adopt(c, "s1")
	if err != nil || len(adopted) != 1 || adopted[0] != 1 {
		t.Fatalf("overlapping adopt: %v %v", adopted, err)
	}
	if a.origin(1) != "s1" || a.origin(0) != "" {
		t.Errorf("origins after adopt: %v", a.Origins)
	}
	d := &Checkpoint{Experiment: "E5", Seed: 1, Quick: true}
	if _, err := a.Adopt(d, "s2"); err == nil {
		t.Error("cross-experiment adopt accepted")
	}
}

// TestCloneKeepsHoles: sparse checkpoints survive Clone and JSON round
// trips with holes intact — nil batches stay nil, computed-empty batches
// stay non-nil.
func TestCloneKeepsHoles(t *testing.T) {
	ck := &Checkpoint{Experiment: "E4", Seed: 1, Quick: true, TotalBatches: 3,
		Batches: [][][]string{{{"a"}}, nil, {}},
		Origins: []string{"s0", "", "s2"}}
	for name, got := range map[string]*Checkpoint{"clone": ck.Clone(), "json": jsonRoundTrip(t, ck)} {
		if got.Batches[1] != nil {
			t.Errorf("%s: hole became non-nil", name)
		}
		if got.Batches[2] == nil {
			t.Errorf("%s: computed-empty batch became a hole", name)
		}
		if got.TotalBatches != 3 || got.origin(0) != "s0" || got.origin(2) != "s2" {
			t.Errorf("%s: annotations lost: %+v", name, got)
		}
		if got.Computed() != 2 {
			t.Errorf("%s: Computed() = %d, want 2", name, got.Computed())
		}
	}
	if idx := ck.ComputedIndices(); len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Errorf("ComputedIndices() = %v", idx)
	}
}

func jsonRoundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
