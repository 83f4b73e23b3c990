package jobs

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"locality/internal/harness"
	"locality/internal/obs"
	"locality/internal/obs/trace"
	"locality/internal/rng"
	"locality/internal/store"
	"locality/internal/tenant"
)

// Options configures a Pool. The zero value is usable: 2 workers, a queue
// of 16, no persistence, no retry, single-tenant, no dedup.
type Options struct {
	// Workers is the number of concurrent job runners (default 2).
	Workers int
	// QueueDepth bounds the submission queue (default 16). A submission
	// arriving at a full queue is shed, never buffered elsewhere.
	QueueDepth int
	// CheckpointDir, when non-empty, persists each job's row-batch
	// checkpoint as JSON under this directory (atomic write: temp file
	// then rename), keyed by the job's determinism identity. A job
	// resubmitted after a crash resumes from the persisted batches; the
	// file is removed when the job succeeds.
	CheckpointDir string
	// RetryBudget is the number of attempts per job (default 1, i.e. no
	// retry). Retries apply only to transient failures — panics that are
	// not cancellations or deadlines — and each retried attempt resumes
	// from the job's checkpoint rather than starting over.
	RetryBudget int
	// Backoff paces the retries. Its Seed is mixed with each job's Spec
	// seed so every job walks its own deterministic jitter schedule.
	Backoff harness.Backoff
	// BatchHook, when non-nil, is invoked synchronously after each freshly
	// computed (and persisted) row batch with the job ID and a private
	// checkpoint clone. It exists for tests — fault injection, progress
	// assertions — and runs inside the job attempt, so a panic here is
	// recovered like any experiment panic.
	BatchHook func(id string, ck *harness.Checkpoint)
	// Metrics, when non-nil, receives the pool's counters and gauges
	// (submissions, sheds by reason, terminal states, retries, panics,
	// batches, queue depth, running jobs, per-tenant admissions). Nil
	// disables instrumentation at zero cost.
	Metrics *obs.Registry
	// Tracer, when non-nil, emits deterministic spans for every
	// submission and job lifecycle stage — admission, store lookup,
	// queue wait, execution, per-batch commits, store write-through —
	// into the tracer's JSONL artifact (internal/obs/trace). Like
	// Metrics, nil disables tracing at zero cost, and tracing is inert
	// by the same contract: results are byte-identical with it on or
	// off (differentially test-asserted).
	Tracer *trace.Tracer
	// Tenancy, when non-nil, configures multi-tenant admission: per-tenant
	// quotas, bounded tenant retention, and weighted round-robin fair
	// dequeue (see internal/tenant). Nil runs the registry with permissive
	// defaults — every caller is admitted subject only to the global queue
	// bound, and unkeyed callers share the anonymous tenant.
	Tenancy *tenant.Config
	// Idempotent dedups submissions by determinism identity: a submit whose
	// Spec.IdentityKey matches a queued, running or succeeded job returns
	// that job (SubmitResult.Deduped) instead of enqueueing work. Failed
	// and cancelled jobs do not dedup — resubmitting one recomputes.
	Idempotent bool
	// Store, when non-nil, is the persistent content-addressed result
	// cache (internal/store). An unsharded submit whose determinism
	// identity hits the store returns an already-succeeded job without
	// entering the queue — charged to the tenant as a cheap admission
	// (rate token only, no queue or in-flight slot) — and every unsharded
	// success writes its rendered table through. Soundness rests on
	// IdentityKey covering everything the output depends on (see
	// identity.go): cached and freshly-computed tables are byte-identical.
	Store *store.Store
	// Retention bounds how many terminal jobs stay pollable: past it, the
	// oldest terminal jobs are dropped FIFO, each taking its idempotency-
	// map entry with it — the dedup map cannot outgrow the job table.
	// 0 retains everything (tests, short-lived pools).
	Retention int
	// Execute, when non-nil, runs every job in place of the local harness
	// driver. It is injected because its one implementation, the cluster
	// coordinator (cmd/localityd -coordinator), imports this package. It
	// runs under the same panic isolation, cancel/timeout context, retry
	// budget and terminal bookkeeping as a local attempt, but without the
	// checkpoint store or the harness observers: the executor owns its own
	// progress and telemetry. It receives the job ID, the spec, the
	// submitting tenant's raw API key and the job's durable trace parent,
	// and returns the rendered table and its batch count. A pool with an
	// executor owns sharding, so a submitted Spec.Rows is shed as invalid.
	Execute func(ctx context.Context, id string, spec Spec, apiKey string, parent trace.SpanContext) (output string, batches int, err error)

	// nowNanos overrides the monotonic clock feeding the tenant registry's
	// token buckets. Tests only; nil uses the process monotonic clock.
	nowNanos func() int64
	// persisted, when non-nil, runs with a succeeded job's ID after its
	// result is persisted and before its success is published. Tests only.
	persisted func(id string)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 16
}

func (o Options) retryBudget() int {
	if o.RetryBudget > 0 {
		return o.RetryBudget
	}
	return 1
}

// job is the pool-private mutable record behind a Job snapshot. All fields
// after the immutables are guarded by the pool mutex.
type job struct {
	id       string
	spec     Spec
	ikey     string // determinism identity, when dedup or the result store needs it
	num      int    // submission order, for List
	tenantID string // admitting tenant's public ID
	apiKey   string // submitter's raw API key, for Options.Execute; never snapshotted

	ctx    context.Context // cancelled by Cancel, Close, or pool teardown
	cancel context.CancelFunc

	state       State
	attempts    int
	batchesDone int
	err         error
	output      string
	ck          *harness.Checkpoint // latest snapshot; final sparse ck for sharded jobs
	subs        []*Subscription     // live event streams
	eventSeq    uint64

	// root parents EVERY run-side span (queue wait, execution, batch
	// commits, store write-through) — the admission span's context,
	// carrying the identity-derived trace. Deliberately not the job.run
	// span: a span record is written only at End, so parenting long-lived
	// children to a span a SIGKILL might leave unwritten would orphan
	// them; the admission span is durably on disk before the job starts.
	root trace.SpanContext
	// qspan is the queue-wait span, started at enqueue and ended by the
	// worker that dequeues the job.
	qspan *trace.Span
}

// Pool is a supervised worker pool running experiment sweeps. Create with
// New, submit with Submit or SubmitTenant, shut down with Close.
type Pool struct {
	opts    Options
	store   checkpointStore
	metrics poolMetrics
	// wake carries one token per queued job: Submit deposits a token after
	// a successful tenant-registry enqueue, each worker withdraws one and
	// dequeues the next job under weighted round-robin. Capacity equals the
	// global queue bound, and the bound is checked before enqueueing under
	// the same mutex, so a deposit never blocks. Close closes wake; workers
	// drain the remaining tokens (running the queued jobs to the drain
	// deadline) and exit.
	wake  chan struct{}
	epoch time.Time // monotonic anchor for the tenant registry's clock

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	identity map[string]*job // IdentityKey -> job, when Options.Idempotent
	done     []string        // terminal job IDs in completion order, for Retention
	tenants  *tenant.Registry
	nextNum  int
	draining bool
}

// New starts a pool: opts.Workers goroutines consuming the fair queue.
func New(opts Options) *Pool {
	ctx, cancel := context.WithCancel(context.Background())
	tcfg := tenant.Config{}
	if opts.Tenancy != nil {
		tcfg = *opts.Tenancy
	}
	ckDir := opts.CheckpointDir
	if opts.Execute != nil {
		ckDir = "" // executed jobs keep no local checkpoints
	}
	p := &Pool{
		opts:      opts,
		store:     checkpointStore{dir: ckDir},
		metrics:   newPoolMetrics(opts.Metrics),
		wake:      make(chan struct{}, opts.queueDepth()),
		epoch:     time.Now(),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*job),
		identity:  make(map[string]*job),
		tenants:   tenant.NewRegistry(tcfg),
	}
	for i := 0; i < opts.workers(); i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for range p.wake {
				p.mu.Lock()
				item, ten, ok := p.tenants.Dequeue()
				p.metrics.queueDepth.Set(int64(p.tenants.QueuedTotal()))
				p.mu.Unlock()
				if !ok {
					continue
				}
				p.runJob(item.(*job), ten)
			}
		}()
	}
	return p
}

// now is the monotonic clock injected into the tenant registry. Wall time
// here paces admission (token-bucket refill), never results.
func (p *Pool) now() int64 {
	if p.opts.nowNanos != nil {
		return p.opts.nowNanos()
	}
	return int64(time.Since(p.epoch))
}

// SubmitResult reports an accepted submission.
type SubmitResult struct {
	// ID is the job to poll.
	ID string `json:"id"`
	// Tenant is the admitting tenant's public ID (a pinned name, a key
	// hash, or "anonymous" — never the raw API key). On a deduped result it
	// is the original submitter's tenant.
	Tenant string `json:"tenant,omitempty"`
	// Deduped reports an idempotent hit: ID names a previously submitted
	// job with the same determinism identity, and no new work was enqueued
	// (and no quota was charged).
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports a result-store hit: ID names a fresh job that was
	// born succeeded from the persistent cache — no work was enqueued, and
	// the tenant was charged a rate token but no queue or in-flight slot.
	Cached bool `json:"cached,omitempty"`
}

// Submit enqueues a job on behalf of the anonymous tenant and returns its
// ID. See SubmitTenant.
func (p *Pool) Submit(spec Spec) (string, error) {
	res, err := p.SubmitTenant("", spec)
	return res.ID, err
}

// SubmitTenant enqueues a job on behalf of the tenant owning apiKey. It
// never blocks: when the pool is draining, the global queue is full, the
// spec is invalid, or the tenant's quotas reject the submission, it sheds
// with a *ShedError explaining why (tenant rejections wrap the structured
// *tenant.LimitError, so errors.Is classifies against the tenant
// sentinels and errors.As recovers the retry hint).
//
// With Options.Idempotent, a spec whose determinism identity matches a
// queued, running or succeeded job dedups: the existing job is returned
// with Deduped set, no work is enqueued, and no quota is charged.
func (p *Pool) SubmitTenant(apiKey string, spec Spec) (SubmitResult, error) {
	return p.SubmitTenantSpan(trace.SpanContext{}, apiKey, spec)
}

// SubmitTenantSpan is SubmitTenant with an inbound trace parent: the HTTP
// layer passes the request's span so the admission span (and everything
// the job emits below it) lands in the caller's trace. A zero parent with
// tracing enabled roots a fresh trace derived from the spec's determinism
// identity, so re-submitting the same spec yields the same trace ID on
// every process that ever touches it.
func (p *Pool) SubmitTenantSpan(parent trace.SpanContext, apiKey string, spec Spec) (SubmitResult, error) {
	// Experiment IDs resolve case-insensitively; canonicalize before the
	// identity is hashed so "e1" and "E1" share dedup, store and trace keys.
	spec.Experiment = strings.ToUpper(spec.Experiment)
	var asp *trace.Span
	if tr := p.opts.Tracer; tr != nil {
		if parent.Trace == "" {
			parent.Trace = trace.IDFromIdentity(spec.IdentityKey())
		}
		asp = tr.Start(parent, "pool.admit", "experiment", spec.Experiment)
	}
	// End deferred before the mutex is taken: the span's file write runs
	// after Unlock, keeping I/O out of the pool's critical section.
	defer asp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	shed := func(reason error) (SubmitResult, error) {
		asp.SetAttr("outcome", "shed")
		return SubmitResult{}, &ShedError{
			Reason:   reason,
			QueueLen: p.tenants.QueuedTotal(),
			QueueCap: p.opts.queueDepth(),
			Workers:  p.opts.workers(),
		}
	}
	if _, ok := harness.ByID(spec.Experiment); !ok {
		p.metrics.shedUnknown.Inc()
		return shed(fmt.Errorf("%w %q", ErrUnknownExperiment, spec.Experiment))
	}
	if err := spec.Rows.Validate(); err != nil {
		p.metrics.shedInvalid.Inc()
		return shed(err)
	}
	if spec.Rows != nil && p.opts.Execute != nil {
		p.metrics.shedInvalid.Inc()
		return shed(fmt.Errorf("%w: rows are owned by the pool's executor", ErrInvalidRowSpec))
	}
	if p.draining {
		p.metrics.shedDrain.Inc()
		return shed(ErrDraining)
	}
	var ikey string
	if p.opts.Idempotent || p.opts.Store != nil || p.opts.Tracer != nil {
		ikey = spec.IdentityKey()
	}
	if p.opts.Idempotent {
		if prev, ok := p.identity[ikey]; ok &&
			prev.state != StateFailed && prev.state != StateCancelled {
			p.metrics.deduped.Inc()
			asp.SetAttr("outcome", "deduped")
			asp.SetAttr("job", prev.id)
			return SubmitResult{ID: prev.id, Tenant: prev.tenantID, Deduped: true}, nil
		}
	}
	ten, err := p.tenants.Lookup(apiKey)
	if err != nil {
		p.metrics.shedExhausted.Inc()
		p.metrics.tenantShed(nil, err)
		return shed(err)
	}
	// Result-store consult — after the dedup check, so concurrent
	// duplicates of a live job keep collapsing onto one ID rather than
	// minting per-submit cached jobs. An unsharded spec whose result is
	// already stored completes here: the job is born succeeded, enters no
	// queue, and holds no slot, so the tenant pays the rate token only.
	// (Sharded specs are excluded end to end: their product is a
	// checkpoint, not a table, and the coordinator caches the merged
	// result instead.)
	if p.opts.Store != nil && spec.Rows == nil {
		gs := p.opts.Tracer.Start(asp.Context(), "store.get")
		res, ok := p.opts.Store.Get(ikey)
		if ok {
			gs.SetAttr("outcome", "hit")
		} else {
			gs.SetAttr("outcome", "miss")
		}
		gs.End()
		if ok {
			if err := p.tenants.Admit(ten, p.now()); err != nil {
				p.metrics.shedQuota.Inc()
				p.metrics.tenantShed(ten, err)
				return shed(err)
			}
			j := &job{
				id:          fmt.Sprintf("job-%d", p.nextNum),
				num:         p.nextNum,
				spec:        spec,
				ikey:        ikey,
				tenantID:    ten.ID(),
				ctx:         p.baseCtx,
				cancel:      func() {}, // nothing to cancel: born terminal
				state:       StateSucceeded,
				output:      res.Output,
				batchesDone: res.Batches,
			}
			p.nextNum++
			p.jobs[j.id] = j
			if p.opts.Idempotent {
				p.identity[ikey] = j
			}
			p.retainLocked(j)
			p.metrics.submitted.Inc()
			p.metrics.tenantAdmit(ten)
			p.metrics.terminal(StateSucceeded)
			asp.SetAttr("outcome", "cached")
			asp.SetAttr("job", j.id)
			return SubmitResult{ID: j.id, Tenant: ten.ID(), Cached: true}, nil
		}
	}
	if p.tenants.QueuedTotal() >= p.opts.queueDepth() {
		p.metrics.shedFull.Inc()
		p.metrics.tenantShed(ten, ErrQueueFull)
		return shed(ErrQueueFull)
	}
	ctx, cancel := context.WithCancel(p.baseCtx)
	j := &job{
		id:       fmt.Sprintf("job-%d", p.nextNum),
		num:      p.nextNum,
		spec:     spec,
		ikey:     ikey,
		tenantID: ten.ID(),
		apiKey:   apiKey,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
	}
	if err := p.tenants.Enqueue(ten, j, p.now()); err != nil {
		cancel()
		p.metrics.shedQuota.Inc()
		p.metrics.tenantShed(ten, err)
		return shed(err)
	}
	select {
	case p.wake <- struct{}{}:
	default:
		// Unreachable: Enqueue admitted at most queueDepth items (checked
		// above under this mutex), and each admitted item owns one token.
	}
	p.nextNum++
	p.jobs[j.id] = j
	if p.opts.Idempotent {
		p.identity[ikey] = j
	}
	p.metrics.submitted.Inc()
	p.metrics.tenantAdmit(ten)
	p.metrics.queueDepth.Set(int64(p.tenants.QueuedTotal()))
	asp.SetAttr("outcome", "enqueued")
	asp.SetAttr("job", j.id)
	// The run-side spans parent to the admission span: queue.wait starts
	// now and is ended by the worker that dequeues the job.
	j.root = asp.Context()
	j.qspan = p.opts.Tracer.Start(j.root, "queue.wait", "experiment", spec.Experiment, "job", j.id)
	return SubmitResult{ID: j.id, Tenant: ten.ID()}, nil
}

// Get returns a snapshot of the job, if the pool knows the ID.
func (p *Pool) Get(id string) (Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Job{}, false
	}
	return p.snapshot(j), true
}

// List returns snapshots of every job, in submission order.
func (p *Pool) List() []Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	all := make([]*job, 0, len(p.jobs))
	for _, j := range p.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].num < all[b].num })
	out := make([]Job, len(all))
	for i, j := range all {
		out[i] = p.snapshot(j)
	}
	return out
}

// snapshot renders a job under the pool mutex.
func (p *Pool) snapshot(j *job) Job {
	s := Job{
		ID:          j.id,
		Spec:        j.spec,
		Tenant:      j.tenantID,
		State:       j.state,
		Attempts:    j.attempts,
		BatchesDone: j.batchesDone,
		Output:      j.output,
	}
	if j.err != nil {
		s.Error = j.err.Error()
		s.ErrorKind = classify(j.err)
	}
	return s
}

// Cancel requests cancellation of a job. A queued job is cancelled before
// it starts; a running job's sweep aborts at the next row-batch boundary.
// Cancelling a terminal job is a no-op.
func (p *Pool) Cancel(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	j.cancel()
	return nil
}

// Draining reports whether shutdown has begun (readiness probes flip on
// this).
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Close shuts the pool down gracefully: no new submissions are accepted,
// queued and in-flight jobs keep running until ctx expires, and any job
// still running at that point is cancelled — its progress already
// checkpointed batch by batch, its event subscribers notified with a
// terminal event. Close returns once every worker goroutine has exited:
// nil if all jobs drained, otherwise the drain deadline's cause. Close is
// idempotent; later calls just wait for the drain.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	p.mu.Unlock()
	if !already {
		close(p.wake)
	}

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("jobs: drain deadline: %w", context.Cause(ctx))
		p.cancelAll()
		<-done
	}
	p.cancelAll()
	return err
}

// runJob drives one job to a terminal state. It never panics: experiment
// panics are recovered inside the attempt and become structured errors.
// Whatever the terminal state, the tenant's in-flight slot is released and
// every event subscriber observes termination.
func (p *Pool) runJob(j *job, ten *tenant.Tenant) {
	defer j.cancel()
	p.mu.Lock()
	if j.ctx.Err() != nil { // cancelled while queued
		p.finishLocked(j, fmt.Errorf("jobs: cancelled before start: %w", context.Cause(j.ctx)))
		p.tenants.Finish(ten)
		subs := j.takeSubsLocked()
		qspan := j.qspan
		p.mu.Unlock()
		closeSubs(subs)
		qspan.SetAttr("outcome", "cancelled")
		qspan.End()
		return
	}
	j.state = StateRunning
	qspan := j.qspan
	j.publishLocked()
	p.mu.Unlock()
	rspan := p.opts.Tracer.Start(j.root, "job.run", "experiment", j.spec.Experiment, "job", j.id)
	qspan.SetAttr("outcome", "dequeued")
	qspan.End()
	p.metrics.running.Inc()
	defer p.metrics.running.Dec()

	ctx := j.ctx
	if j.spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.spec.Timeout)
		defer cancel()
	}

	ck := p.store.load(j.spec)
	if ck != nil {
		p.mu.Lock()
		j.batchesDone = ck.Computed()
		j.ck = ck
		p.mu.Unlock()
	}

	backoff := p.opts.Backoff
	backoff.Seed = rng.Mix64(backoff.Seed, j.spec.Seed)

	// RetryContext owns the budget and the waits; the callback reports
	// transient errors for retry and swallows permanent ones (recording
	// them in `permanent`) to stop the budget early — a cancelled or
	// deadlined job must not burn attempts it was told not to make.
	var table string
	var permanent error
	rr := harness.RetryContext(ctx, p.opts.retryBudget(), backoff, func(attempt int) error {
		if attempt > 0 {
			p.metrics.retries.Inc()
		}
		p.mu.Lock()
		j.attempts = attempt + 1
		p.mu.Unlock()
		out, err := p.attempt(ctx, j, &ck)
		switch {
		case err == nil:
			table = out
			return nil
		case cancelled(err) || classify(err) == "deadline":
			permanent = err
			return nil
		default:
			return err
		}
	})

	var final error
	switch {
	case permanent != nil:
		final = permanent
	case rr.Success:
		final = nil
	default:
		final = rr.LastErr
	}

	if final == nil {
		// A sharded job's checkpoint IS its product: keep the file so a
		// resubmitted shard (coordinator retry, restarted worker) replays to
		// instant completion instead of recomputing. An unsharded success
		// drops its checkpoint and writes the rendered table through to the
		// result store — the next identical submit completes at admission.
		// Both happen before the success is published, so a submit that
		// sees the job succeeded also finds its result in the store.
		if j.spec.Rows == nil {
			p.store.clear(j.spec)
			if p.opts.Store != nil {
				p.mu.Lock()
				batches := j.batchesDone
				p.mu.Unlock()
				ps := p.opts.Tracer.Start(j.root, "store.put")
				p.opts.Store.Put(j.ikey, store.Result{Output: table, Batches: batches})
				ps.End()
			}
		}
		if p.opts.persisted != nil {
			p.opts.persisted(j.id)
		}
		p.mu.Lock()
		j.state = StateSucceeded
		j.output = table
		p.retainLocked(j)
		p.tenants.Finish(ten)
		subs := j.takeSubsLocked()
		p.mu.Unlock()
		closeSubs(subs)
		p.metrics.terminal(StateSucceeded)
		rspan.SetAttr("state", string(StateSucceeded))
		rspan.End()
		return
	}
	p.mu.Lock()
	p.finishLocked(j, final)
	p.tenants.Finish(ten)
	subs := j.takeSubsLocked()
	st := j.state
	p.mu.Unlock()
	closeSubs(subs)
	rspan.SetAttr("state", string(st))
	rspan.End()
}

// finishLocked records a terminal failure; callers hold the pool mutex.
func (p *Pool) finishLocked(j *job, err error) {
	j.err = err
	if cancelled(err) {
		j.state = StateCancelled
	} else {
		j.state = StateFailed
	}
	p.retainLocked(j)
	p.metrics.terminal(j.state)
}

// retainLocked records j's terminal transition and enforces
// Options.Retention: past the bound, the oldest terminal jobs fall off the
// FIFO, each deleted from the job table together with any idempotency-map
// entry still pointing at it — so a long-lived idempotent pool's dedup map
// shrinks with its jobs instead of holding one entry per distinct spec
// forever. Queued and running jobs are never evicted (they are not in the
// FIFO yet). Callers hold the pool mutex.
func (p *Pool) retainLocked(j *job) {
	if p.opts.Retention <= 0 {
		return
	}
	p.done = append(p.done, j.id)
	for len(p.done) > p.opts.Retention {
		id := p.done[0]
		p.done = p.done[1:]
		old, ok := p.jobs[id]
		if !ok {
			continue
		}
		delete(p.jobs, id)
		if old.ikey != "" {
			if cur, ok := p.identity[old.ikey]; ok && cur == old {
				delete(p.identity, old.ikey)
			}
		}
	}
}

// attempt runs the job once — through Options.Execute when set, else the
// local experiment driver — under panic isolation: a panicking driver,
// executor or batch hook is recovered into a *JobError carrying the value
// and stack, and the worker lives on. It returns the rendered table.
// Completed row batches are checkpointed as they land, so whatever ends this
// attempt, the next one — or a resubmission — resumes where it stopped.
//
// A sharded attempt (Spec.Rows set) ends in the harness's *ShardDoneError
// panic instead of returning a table; that is its success: the final sparse
// checkpoint — TotalBatches now known — is recorded, persisted, and the
// attempt reports ("", nil).
func (p *Pool) attempt(ctx context.Context, j *job, ck **harness.Checkpoint) (out string, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if done, ok := r.(*harness.ShardDoneError); ok && j.spec.Rows != nil {
			*ck = done.Checkpoint
			p.store.save(j.spec, done.Checkpoint)
			p.mu.Lock()
			j.ck = done.Checkpoint
			j.batchesDone = done.Checkpoint.Computed()
			p.mu.Unlock()
			out, err = "", nil
			return
		}
		p.metrics.panics.Inc()
		je := &JobError{ID: j.id, Experiment: j.spec.Experiment, Value: r, Stack: debug.Stack()}
		if cause, ok := r.(error); ok {
			je.Cause = cause
		}
		err = je
	}()
	if p.opts.Execute != nil {
		out, batches, err := p.opts.Execute(ctx, j.id, j.spec, j.apiKey, j.root)
		if err == nil {
			p.mu.Lock()
			j.batchesDone = batches
			p.mu.Unlock()
		}
		return out, err
	}
	driver, _ := harness.ByID(j.spec.Experiment)
	cfg := harness.Config{
		Obs:     p.sweepObserver(j),
		Quick:   j.spec.Quick,
		Seed:    j.spec.Seed,
		Workers: j.spec.Workers,
		Ctx:     ctx,
		Resume:  *ck,
		OnBatch: func(c *harness.Checkpoint) {
			p.metrics.batches.Inc()
			snap := c.Clone()
			*ck = snap
			p.mu.Lock()
			j.batchesDone = snap.Computed()
			j.ck = snap
			j.publishLocked()
			p.mu.Unlock()
			p.store.save(j.spec, snap)
			if p.opts.BatchHook != nil {
				p.opts.BatchHook(j.id, snap)
			}
		},
	}
	if j.spec.Rows != nil {
		cfg.RowSelect = j.spec.Rows.Selected
	}
	var buf bytes.Buffer
	driver(cfg).Render(&buf)
	return buf.String(), nil
}

// sweepObserver returns the attempt's batch-span observer, or a nil
// interface when tracing is off: a typed-nil *trace.Observer would arm
// the simulator's round hook on every run and lose its 0-allocs/round
// disabled path. Batch spans parent to the job's root (the admission
// span) rather than the in-flight job.run span — see the job.root field
// on why that matters under SIGKILL.
func (p *Pool) sweepObserver(j *job) harness.Observer {
	if p.opts.Tracer == nil {
		return nil
	}
	return trace.NewObserver(p.opts.Tracer, j.root)
}

// Checkpoint returns the job's latest checkpoint snapshot — updated batch by
// batch while the job runs, and holding the final sparse checkpoint (with
// TotalBatches set) once a sharded job succeeds. The second return
// distinguishes an unknown ID (false) from a known job with no checkpoint
// yet (nil, true). The returned checkpoint is a shared snapshot the pool no
// longer mutates; callers must treat it as read-only.
func (p *Pool) Checkpoint(id string) (*harness.Checkpoint, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return nil, false
	}
	return j.ck, true
}
