package harness

// In-order row commits, inline or parallel.
//
// A sweep's rows are embarrassingly parallel: the checkpoint discipline
// (checkpoint.go) already requires each compute closure to be a pure
// function of its prep state and per-row seeds, with every shared-stream
// RNG draw in the driver's prep section. One mechanism serves every worker
// count. Each Row call appends a batch to the sweep's pending queue, and
// the driver goroutine commits the queue's finished head batches strictly
// in row-index order (table append, checkpoint record, OnBatch, Observer).
// A replay, a hole, or a compute run inline (Workers <= 1) is finished when
// it is queued; with Workers > 1 a compute runs on its own goroutine, into
// a private staging table, and finishes when that goroutine returns.
// Because commits happen only on the driver goroutine and only in order,
// everything observable — rendered bytes, checkpoint contents, OnBatch
// sequence, resume behavior — is identical at every worker count.
//
// Ordering and failure rules:
//
//   - Speculation is bounded: a slot channel of capacity Workers keeps at
//     most that many computes running, and Row commits finished heads while
//     it waits for a slot. A finished compute keeps only its staged rows.
//   - Cancellation keeps row granularity: a dead Config.Ctx is observed at
//     each Row call, while Row or Flush waits, and before each commit. An
//     inline compute took its check at Row entry, before it ran, so it
//     commits even if it cancelled the context itself. The sweep then stops
//     committing, joins its running computes, and panics a *SweepError.
//     Batches computed past the cancellation point are discarded —
//     determinism makes recomputing them on resume byte-equivalent.
//   - Failures keep their order: an inline compute's panic leaves Row
//     directly; a goroutine's is recovered, held with its batch, and
//     re-panicked on the driver goroutine when the batch reaches its commit
//     slot — after the running computes are joined — so the lowest-index
//     failure surfaces, exactly as it would sequentially.

// rowBatch is one Row call awaiting its in-order commit: a replay (rows
// holds the recorded batch), a hole (nothing set), or a compute (staging
// holds the rows it added). done is nil when the batch was finished on
// arrival; otherwise its goroutine closes done on return, after recording
// any panic in panicked.
type rowBatch struct {
	rows     [][]string
	staging  *Table
	panicked any
	done     chan struct{}
}

// finished reports whether b can commit.
func (b *rowBatch) finished() bool {
	if b.done == nil {
		return true
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// commitReady commits the finished batches at the head of the queue.
func (s *sweepState) commitReady(t *Table) {
	for len(s.pending) > 0 && s.pending[0].finished() {
		b := s.pending[0]
		s.pending = s.pending[1:]
		if b.done != nil || b.staging == nil {
			// An inline compute was checked at Row entry, before it ran.
			// Every other batch is checked here, so a cancellation raised
			// by the previous commit's OnBatch stops the sweep before
			// another batch lands.
			s.live(t)
		}
		switch {
		case b.panicked != nil:
			s.abort(b.panicked)
		case b.staging != nil:
			s.commitBatch(t, b.staging.Rows)
		case b.rows != nil:
			s.replayRows(t, b.rows)
		default:
			// A hole fires no OnBatch — nothing was computed.
			s.setBatch(s.committed, nil)
			s.committed++
		}
	}
}

// spawn runs compute on its own goroutine once a slot is free, committing
// finished heads while it waits. The goroutine records a panic for the
// commit to re-raise, closes b.done and frees its slot.
func (s *sweepState) spawn(t *Table, b *rowBatch, compute func(*Table)) {
	for !s.wait(t, s.slots) {
	}
	b.done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.slots }()
		defer close(b.done)
		defer func() { b.panicked = recover() }()
		compute(b.staging)
	}()
}

// wait blocks until the head batch finishes, and then commits the
// finished heads, or until it takes a token from slots (a nil slots never
// gives one), which it reports. A dead context aborts the sweep.
func (s *sweepState) wait(t *Table, slots chan<- struct{}) bool {
	var head chan struct{}
	if len(s.pending) > 0 {
		head = s.pending[0].done
	}
	select {
	case slots <- struct{}{}:
		return true
	case <-head:
		s.commitReady(t)
	case <-s.ctx.Done():
		s.abort(s.interrupted(t))
	}
	return false
}

// live aborts the sweep once its context is dead.
func (s *sweepState) live(t *Table) {
	if s.ctx.Err() != nil {
		s.abort(s.interrupted(t))
	}
}

// abort joins the running computes and re-panics v on the driver
// goroutine. The sweep is unusable afterwards; supervision layers recover
// the panic.
func (s *sweepState) abort(v any) {
	s.wg.Wait()
	panic(v)
}
