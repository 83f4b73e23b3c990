package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Row-level sweep checkpointing.
//
// Every experiment driver is a deterministic function of its Config: the
// same (Quick, Seed) produces byte-identical tables. Checkpointing exploits
// that determinism to make sweeps resumable: a driver wraps each expensive
// row computation in cfg.Row(t, compute), and the completed rows are
// recorded — batch by batch, in sweep order — into a Checkpoint that a
// supervision layer (internal/jobs, cmd/localityd) persists as JSON. A
// killed or cancelled sweep re-run with Config.Resume replays the recorded
// batches verbatim and recomputes only the remainder, producing the same
// bytes an uninterrupted run would have.
//
// The discipline that makes replay sound: everything a row computation
// draws from an RNG stream shared across rows (graph generation, ID
// assignments) happens in the "prep" section *outside* cfg.Row, so a
// resumed sweep consumes the stream identically whether a row is replayed
// or recomputed; inside compute, randomness comes only from per-row seeds
// derived from Config.Seed. Notes are always recomputed — drivers that
// summarize across rows parse the (replayed or fresh) row cells, never
// loop-carried state.
//
// The same discipline is what lets Config.Workers compute rows in parallel:
// compute closures are pure functions of their prep state, so they can run
// speculatively out of order as long as their batches are committed in
// row-index order. Every Row call therefore queues one batch, replayed,
// skipped or computed, and parallel.go commits the queue in order on the
// driver goroutine, the same way at every worker count.

// Checkpoint is the resume state of one experiment sweep: the AddRow
// batches completed so far, tagged with the identity of the run they came
// from. It round-trips through JSON unchanged.
//
// A checkpoint may be sparse: a nil batch is a hole — a batch some other
// run (another shard of a cluster sweep) owns, or one not yet computed.
// Replay skips holes and a resumed sweep recomputes them in place, so a
// coordinator that merges shard checkpoints with Adopt gets the full table
// back by re-running the driver over the merged checkpoint.
type Checkpoint struct {
	// Experiment is the table ID of the sweep ("E1" ... "A3").
	Experiment string `json:"experiment"`
	// Seed and Quick identify the run; a checkpoint only resumes a run
	// with the same identity (determinism is per (Experiment, Seed, Quick);
	// Config.Workers is deliberately excluded — tables are byte-identical
	// at any worker count, so a checkpoint resumes across worker counts).
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick"`
	// Batches holds, per cfg.Row call, the table rows that call appended,
	// in sweep order. A nil entry is a hole (not computed by this run); an
	// empty non-nil entry is a computed batch that appended no rows.
	Batches [][][]string `json:"batches"`
	// Origins, when present, annotates each batch with the shard that
	// computed it ("" for locally computed batches). It is written by
	// coordinators via Adopt — provenance for metrics and logs,
	// never consulted by replay.
	Origins []string `json:"origins,omitempty"`
	// TotalBatches, when > 0, records the sweep's full batch count — set
	// once a sharded run completes (every Row call accounted for, computed
	// or hole). Coordinators use it to decide when a merged checkpoint is
	// complete.
	TotalBatches int `json:"total_batches,omitempty"`
}

// Compatible reports whether the checkpoint can seed a resumed run of the
// experiment with the given config.
func (ck *Checkpoint) Compatible(experiment string, cfg Config) bool {
	return ck != nil && ck.Experiment == experiment && ck.Seed == cfg.Seed && ck.Quick == cfg.Quick
}

// Rows counts the table rows recorded across all completed batches.
func (ck *Checkpoint) Rows() int {
	if ck == nil {
		return 0
	}
	n := 0
	for _, b := range ck.Batches {
		n += len(b)
	}
	return n
}

// Computed counts the non-hole batches — the batches this checkpoint
// actually holds rows (possibly zero rows) for.
func (ck *Checkpoint) Computed() int {
	if ck == nil {
		return 0
	}
	n := 0
	for _, b := range ck.Batches {
		if b != nil {
			n++
		}
	}
	return n
}

// ComputedIndices returns the batch indices this checkpoint holds, in
// order. Coordinators hand the list to shards as a skip set so re-dispatched
// work never recomputes merged batches.
func (ck *Checkpoint) ComputedIndices() []int {
	if ck == nil {
		return nil
	}
	var idx []int
	for i, b := range ck.Batches {
		if b != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// Complete reports whether the checkpoint holds every batch of the sweep:
// the total is known (TotalBatches set) and no holes remain.
func (ck *Checkpoint) Complete() bool {
	return ck != nil && ck.TotalBatches > 0 &&
		len(ck.Batches) == ck.TotalBatches && ck.Computed() == ck.TotalBatches
}

// Clone returns a deep copy, safe to retain after the sweep mutates the
// original. Holes stay holes: a nil batch clones to nil.
func (ck *Checkpoint) Clone() *Checkpoint {
	if ck == nil {
		return nil
	}
	c := &Checkpoint{Experiment: ck.Experiment, Seed: ck.Seed, Quick: ck.Quick,
		TotalBatches: ck.TotalBatches}
	c.Batches = make([][][]string, len(ck.Batches))
	for i, batch := range ck.Batches {
		c.Batches[i] = cloneBatch(batch)
	}
	if ck.Origins != nil {
		c.Origins = append([]string(nil), ck.Origins...)
	}
	return c
}

// ErrCheckpointDiverged is the Adopt sentinel for a determinism violation:
// two runs produced different rows for the same batch index. It should be
// impossible under the localvet-enforced purity contract, which is exactly
// why a coordinator must fail loudly rather than pick a winner when it
// happens.
var ErrCheckpointDiverged = errors.New("harness: checkpoints diverged")

// Adopt merges the other checkpoint's batches into ck, filling holes, and
// annotates each adopted batch with origin. It returns the indices adopted.
// Batches present on both sides must be byte-identical — the cluster
// determinism argument rests on it — and a mismatch returns an error
// wrapping ErrCheckpointDiverged. Identity mismatches (different
// experiment, seed or scale) are rejected the same way a Resume would
// ignore them, but loudly: adopting across identities is a caller bug.
func (ck *Checkpoint) Adopt(other *Checkpoint, origin string) ([]int, error) {
	if other == nil {
		return nil, nil
	}
	if ck.Experiment != other.Experiment || ck.Seed != other.Seed || ck.Quick != other.Quick {
		return nil, fmt.Errorf("harness: adopting checkpoint for %s/%d/quick=%v into %s/%d/quick=%v",
			other.Experiment, other.Seed, other.Quick, ck.Experiment, ck.Seed, ck.Quick)
	}
	if other.TotalBatches > 0 {
		if ck.TotalBatches > 0 && ck.TotalBatches != other.TotalBatches {
			return nil, fmt.Errorf("%w: %s total batches %d vs %d",
				ErrCheckpointDiverged, ck.Experiment, ck.TotalBatches, other.TotalBatches)
		}
		ck.TotalBatches = other.TotalBatches
	}
	var adopted []int
	for i, batch := range other.Batches {
		if batch == nil {
			continue
		}
		for len(ck.Batches) <= i {
			ck.Batches = append(ck.Batches, nil)
		}
		if have := ck.Batches[i]; have != nil {
			if !batchesEqual(have, batch) {
				return nil, fmt.Errorf("%w: %s batch %d differs between %q and %q",
					ErrCheckpointDiverged, ck.Experiment, i, ck.origin(i), origin)
			}
			continue
		}
		ck.Batches[i] = cloneBatch(batch)
		ck.setOrigin(i, origin)
		adopted = append(adopted, i)
	}
	return adopted, nil
}

// origin returns the recorded provenance of batch i ("" when unannotated).
func (ck *Checkpoint) origin(i int) string {
	if i < len(ck.Origins) {
		return ck.Origins[i]
	}
	return ""
}

// setOrigin records the provenance of batch i, growing Origins lazily.
func (ck *Checkpoint) setOrigin(i int, origin string) {
	if origin == "" && ck.Origins == nil {
		return
	}
	for len(ck.Origins) < len(ck.Batches) {
		ck.Origins = append(ck.Origins, "")
	}
	ck.Origins[i] = origin
}

// batchesEqual compares two recorded batches cell by cell.
func batchesEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Encode marshals the checkpoint as JSON.
func (ck *Checkpoint) Encode() ([]byte, error) {
	return json.Marshal(ck)
}

// DecodeCheckpoint unmarshals a checkpoint previously produced by Encode.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("harness: decoding checkpoint: %w", err)
	}
	return &ck, nil
}

// ErrSweepInterrupted is the sentinel for a sweep abandoned between rows by
// Config.Ctx cancellation; test with errors.Is. The concrete error also
// unwraps to the context cause (context.Canceled or DeadlineExceeded).
var ErrSweepInterrupted = errors.New("harness: sweep interrupted between rows")

// ErrShardDone is the sentinel for a sharded sweep (Config.RowSelect set)
// that has accounted for every Row call. It rides the same panic channel as
// cancellation — Config.Flush raises it so the driver's cross-row note code
// never runs over a partial table — and supervision layers classify it as
// success, not failure: the sweep's product is the checkpoint, not the
// table.
var ErrShardDone = errors.New("harness: sharded sweep complete")

// ShardDoneError is panicked by Config.Flush at the end of a sharded sweep.
// It carries the final sparse checkpoint — every batch index present,
// computed batches filled, foreign batches nil — with TotalBatches set to
// the sweep's full batch count, which is how a coordinator learns the
// sweep's size.
type ShardDoneError struct {
	// Experiment is the sharded table's ID.
	Experiment string
	// Checkpoint is the completed shard checkpoint (a private clone).
	Checkpoint *Checkpoint
}

func (e *ShardDoneError) Error() string {
	return fmt.Sprintf("harness: %s sharded sweep complete (%d/%d batches computed)",
		e.Experiment, e.Checkpoint.Computed(), e.Checkpoint.TotalBatches)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *ShardDoneError) Unwrap() error { return ErrShardDone }

// SweepError is panicked by Config.Row when the sweep's context dies. The
// experiment drivers' established failure mode is panic (they have no error
// returns), so cancellation rides the same channel; supervision layers
// recover it and classify with errors.Is against ErrSweepInterrupted and
// the context sentinels. Work completed before the interruption has already
// been handed to Config.OnBatch.
type SweepError struct {
	// Experiment is the interrupted table's ID.
	Experiment string
	// BatchesDone counts the row batches committed (replayed or fresh)
	// before the interruption. In a parallel sweep, speculatively computed
	// but uncommitted batches are not counted — they are discarded and
	// recomputed on resume.
	BatchesDone int
	// Cause is the context cause that killed the sweep.
	Cause error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("harness: %s sweep interrupted after %d row batches: %v",
		e.Experiment, e.BatchesDone, e.Cause)
}

// Unwrap exposes both the sentinel and the context cause to errors.Is.
func (e *SweepError) Unwrap() []error { return []error{ErrSweepInterrupted, e.Cause} }

// sweepState is a Table's in-flight checkpoint bookkeeping, attached by the
// first cfg.Row call.
type sweepState struct {
	ctx       context.Context // Config.Ctx, or Background
	onBatch   func(*Checkpoint)
	obs       Observer
	selectRow func(int) bool // Config.RowSelect; nil computes every batch
	ck        *Checkpoint
	committed int // batches committed in row-index order (== batch index of the next commit)

	// pending holds the uncommitted batches in row-index order (see
	// parallel.go). Row and wait end by committing every finished head, so
	// a head left behind is a compute that was still running on its own
	// goroutine.
	pending []*rowBatch
	slots   chan struct{} // one token per running compute; nil (Workers <= 1) computes inline
	wg      sync.WaitGroup
}

// sweepInit attaches checkpoint state to the table on the first Row call.
func (t *Table) sweepInit(c Config) *sweepState {
	if t.sweep != nil {
		return t.sweep
	}
	s := &sweepState{
		ctx:       c.ctx(),
		onBatch:   c.OnBatch,
		obs:       c.Obs,
		selectRow: c.RowSelect,
		ck:        &Checkpoint{Experiment: t.ID, Seed: c.Seed, Quick: c.Quick},
	}
	if c.Resume.Compatible(t.ID, c) {
		for _, batch := range c.Resume.Batches {
			s.ck.Batches = append(s.ck.Batches, cloneBatch(batch))
		}
	}
	if c.Workers > 1 {
		s.slots = make(chan struct{}, c.Workers)
	}
	t.sweep = s
	return s
}

// setBatch records the batch at index i, growing the checkpoint with holes
// as needed. Commits happen strictly in row-index order, so i only ever
// lands on a hole or one past the end.
func (s *sweepState) setBatch(i int, rows [][]string) {
	for len(s.ck.Batches) <= i {
		s.ck.Batches = append(s.ck.Batches, nil)
	}
	s.ck.Batches[i] = rows
}

// replayRows appends a recorded batch's rows to the table (cloned: the
// checkpoint keeps ownership) and advances the commit cursor.
func (s *sweepState) replayRows(t *Table, rows [][]string) {
	for _, row := range rows {
		t.Rows = append(t.Rows, append([]string(nil), row...))
	}
	s.committed++
}

// Row runs one checkpointable unit of a sweep. If the resumed checkpoint
// already holds this batch, the recorded rows are appended to the table and
// compute is skipped; otherwise compute runs, appending its rows via AddRow
// to the *Table it receives, the fresh batch is recorded, and Config.OnBatch
// — if set — is handed the checkpoint so far for persistence. Between
// batches, Row aborts the sweep with a panicked *SweepError when Config.Ctx
// is dead.
//
// The compute callback's table parameter deliberately shadows the sweep
// table: it is a private staging table, whose rows are committed to the
// sweep table in row-index order once every earlier batch has committed —
// at once with Workers <= 1, and when the compute's goroutine returns in a
// parallel sweep (see parallel.go). Compute must therefore only AddRow on
// its parameter — notes and cross-row reads belong outside Row.
//
// Replay discipline (see the file comment): draws from RNG streams shared
// across rows belong before Row, not inside compute.
func (c Config) Row(t *Table, compute func(t *Table)) {
	s := t.sweepInit(c)
	s.commitReady(t)
	s.live(t)
	i := s.committed + len(s.pending)
	b := &rowBatch{}
	switch {
	case i < len(s.ck.Batches) && s.ck.Batches[i] != nil:
		b.rows = s.ck.Batches[i]
	case s.selectRow != nil && !s.selectRow(i):
		// Sharded mode: this batch belongs to another shard, and commits as
		// a hole.
	default:
		b.staging = &Table{ID: t.ID, Title: t.Title, Claim: t.Claim, Columns: t.Columns}
		if s.slots == nil {
			compute(b.staging)
		} else {
			s.spawn(t, b, compute)
		}
	}
	s.pending = append(s.pending, b)
	s.commitReady(t)
}

// Flush commits every outstanding batch of a parallel sweep, in order, and
// joins its goroutines. Drivers call it after the last Row and before
// reading t.Rows (cross-row notes) or returning the table; with Workers <= 1
// (or no Row calls at all) nothing is outstanding. Like Row, it aborts with
// a panicked *SweepError when Config.Ctx dies while batches are still
// uncommitted.
//
// In sharded mode (Config.RowSelect set) Flush does not return: once every
// batch is committed it panics a *ShardDoneError carrying the final sparse
// checkpoint, so the driver's cross-row note code — which would read a
// partial table — never runs. Supervision layers classify the panic as
// success via errors.Is(err, ErrShardDone).
func (c Config) Flush(t *Table) {
	s := t.sweep
	if s != nil {
		for len(s.pending) > 0 {
			s.wait(t, nil)
		}
		s.wg.Wait()
	}
	if c.RowSelect == nil {
		return
	}
	ck := &Checkpoint{Experiment: t.ID, Seed: c.Seed, Quick: c.Quick}
	if s != nil {
		ck = s.ck.Clone()
	}
	ck.TotalBatches = len(ck.Batches)
	panic(&ShardDoneError{Experiment: t.ID, Checkpoint: ck})
}

// commitBatch appends a freshly computed batch to the table, records it in
// the checkpoint at its row index, and fires OnBatch.
func (s *sweepState) commitBatch(t *Table, rows [][]string) {
	t.Rows = append(t.Rows, rows...)
	recorded := cloneBatch(rows)
	if recorded == nil {
		// A computed batch that appended no rows is still computed, not a
		// hole: record it as an empty batch so sparse merges keep the
		// distinction.
		recorded = [][]string{}
	}
	s.setBatch(s.committed, recorded)
	s.committed++
	if s.onBatch != nil {
		s.onBatch(s.ck)
	}
	if s.obs != nil {
		s.obs.BatchDone(t.ID, s.committed, len(recorded))
	}
}

// interrupted builds the cancellation panic value for the current commit
// position.
func (s *sweepState) interrupted(t *Table) *SweepError {
	return &SweepError{Experiment: t.ID, BatchesDone: s.committed, Cause: context.Cause(s.ctx)}
}

// assertCommitted guards renderers against reading a parallel sweep that was
// never flushed: silently rendering a partial table would defeat the
// byte-identity guarantee, so the bug is loud instead.
func (t *Table) assertCommitted(op string) {
	if t.sweep != nil && len(t.sweep.pending) > 0 {
		panic(fmt.Sprintf("harness: %s.%s with %d uncommitted parallel batches (driver missing Config.Flush)",
			t.ID, op, len(t.sweep.pending)))
	}
}

// ctx returns the sweep context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// cloneBatch deep-copies a slice of rows. A nil batch (a sparse-checkpoint
// hole) clones to nil: holes must survive cloning, or a resumed shard would
// mistake foreign batches for computed-empty ones.
func cloneBatch(batch [][]string) [][]string {
	if batch == nil {
		return nil
	}
	out := make([][]string, len(batch))
	for i, row := range batch {
		out[i] = append([]string(nil), row...)
	}
	return out
}
