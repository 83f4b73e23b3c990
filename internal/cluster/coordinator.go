package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/rng"
)

// Options configures a Coordinator.
type Options struct {
	// Shards is the static membership (ParseShards / LoadShards).
	Shards []Shard
	// RequestTimeout bounds each HTTP attempt against a shard (default 5s) —
	// a hung shard must look like a dead shard, promptly.
	RequestTimeout time.Duration
	// Retries is the attempt budget per shard API call (default 3).
	Retries int
	// Backoff paces client retries and failure-streak probes; its
	// deterministic jitter keeps N coordinators from synchronizing their
	// hammering.
	Backoff harness.Backoff
	// PollInterval is the cadence of the dispatch/merge loop (default 100ms).
	PollInterval time.Duration
	// ProbeInterval is the healthy-shard probe cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeThreshold is the consecutive probe failures that flip a shard
	// unhealthy (default 3).
	ProbeThreshold int
	// Metrics, when non-nil, receives the coordinator's per-shard health,
	// dispatch, adoption, and failover counters.
	Metrics *obs.Registry
	// OnSpan, when non-nil, receives one completed SpanEvent per
	// coordinator action (dispatch, adopt, failover, abandon, endgame).
	// Strictly fire-and-forget, like Metrics and Logf: the hook must not
	// block or feed back into the run (see trace.go on why the
	// coordinator carries no tracer of its own).
	OnSpan func(SpanEvent)
	// Logf, when non-nil, receives progress lines (log.Printf-shaped).
	Logf func(format string, args ...any)
}

// Result is a completed cluster sweep.
type Result struct {
	// Output is the final rendered table — byte-identical to a single-process
	// run of the same spec.
	Output string `json:"output"`
	// Checkpoint is the merged shard checkpoint before the endgame; sparse
	// iff some batches had to be recomputed locally.
	Checkpoint *harness.Checkpoint `json:"-"`
	// TotalBatches is the sweep's full batch count.
	TotalBatches int `json:"total_batches"`
	// Adopted counts merged batches by computing shard.
	Adopted map[string]int `json:"adopted,omitempty"`
	// Retried counts batches recomputed by a surviving shard after failover.
	Retried int `json:"retried"`
	// Recomputed counts holes the endgame recomputed locally.
	Recomputed int `json:"recomputed"`
	// Lost counts batches unaccounted for after merge and endgame. It is
	// zero by construction — determinism makes every batch recomputable —
	// and asserted by the e2e harness.
	Lost int `json:"lost"`
}

// Coordinator shards sweeps across worker localityd instances and merges
// the results. Create with New; Run executes one sweep. A Coordinator is
// not safe for concurrent Runs — callers serialize (cmd/localityd's
// coordinator mode runs one cluster job at a time per Coordinator).
type Coordinator struct {
	opts    Options
	metrics clusterMetrics
	shards  []*shardState
	rr      int // round-robin dispatch cursor
}

// shardState pairs a member with its client and prober.
type shardState struct {
	shard  Shard
	client *Client
	prober *Prober
}

// assignment is one dispatched slice of the sweep.
type assignment struct {
	rows    *jobs.RowSpec
	shard   *shardState
	jobID   string
	retried bool // a failover re-dispatch: its adopted batches count as retried
}

// New validates the membership and builds the coordinator.
func New(opts Options) (*Coordinator, error) {
	if _, err := validateShards(opts.Shards); err != nil {
		return nil, err
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 100 * time.Millisecond
	}
	c := &Coordinator{opts: opts, metrics: clusterMetrics{reg: opts.Metrics}}
	for i, sh := range opts.Shards {
		client := &Client{
			Shard:   sh,
			HTTP:    &http.Client{Timeout: opts.RequestTimeout},
			Retries: opts.Retries,
			Backoff: opts.Backoff,
			OnRetry: func(string) { c.metrics.retry() },
		}
		// Per-shard backoff seed: shards walk distinct jitter schedules.
		client.Backoff.Seed = rng.Mix64(opts.Backoff.Seed, uint64(i))
		ss := &shardState{shard: sh, client: client}
		ss.prober = &Prober{
			Client:    client,
			Interval:  opts.ProbeInterval,
			Backoff:   client.Backoff,
			Threshold: opts.ProbeThreshold,
		}
		c.metrics.shardHealthy(sh.Name, 1)
		c.shards = append(c.shards, ss)
	}
	return c, nil
}

// Shards exposes the membership (for logs and the coordinator's own API).
func (c *Coordinator) Shards() []Shard { return c.opts.Shards }

// logf narrates progress when Options.Logf is set.
func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Run executes one sweep across the cluster: initial residue assignments,
// poll-and-merge with failover, then the local endgame that replays the
// merged checkpoint — recomputing any batches no shard delivered — and
// renders the final table. The output is byte-identical to a
// single-process run of the same spec; the only fatal errors are context
// death, an unknown experiment, and checkpoint divergence (a determinism
// violation that must never be papered over).
func (c *Coordinator) Run(ctx context.Context, spec jobs.Spec) (*Result, error) {
	driver, ok := harness.ByID(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown experiment %q", spec.Experiment)
	}
	if spec.Rows != nil {
		return nil, fmt.Errorf("cluster: spec.Rows is coordinator-owned")
	}
	res := &Result{Adopted: make(map[string]int)}
	merged := &harness.Checkpoint{Experiment: spec.Experiment, Seed: spec.Seed, Quick: spec.Quick}
	res.Checkpoint = merged

	// Health probers run for the duration of the sweep.
	probeCtx, stopProbes := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, ss := range c.shards {
		ss.prober.OnChange = func(shard string, healthy bool) {
			v := int64(0)
			kind := "unhealthy"
			if healthy {
				v, kind = 1, "healthy"
			}
			c.metrics.shardHealthy(shard, v)
			c.logf("cluster: shard %s %s", shard, kind)
		}
		wg.Add(1)
		go func(p *Prober) {
			defer wg.Done()
			p.Run(probeCtx)
		}(ss.prober)
	}
	defer func() {
		stopProbes()
		wg.Wait()
		// Transitions observed after Run returns would race the caller.
		for _, ss := range c.shards {
			ss.prober.OnChange = nil
		}
	}()

	// Initial assignment: shard k of N computes the k-th residue class —
	// no knowledge of the sweep's batch count needed.
	n := len(c.shards)
	var active []*assignment
	for k, ss := range c.shards {
		a := &assignment{rows: &jobs.RowSpec{Mod: n, Keep: k}, shard: ss}
		if n == 1 {
			a.rows = &jobs.RowSpec{} // sole shard takes everything
		}
		active = c.dispatch(ctx, spec, a, active)
	}

	// Poll, merge, fail over. The failover budget bounds pathological
	// ping-pong — a job that fails deterministically on every shard is
	// eventually abandoned to the endgame, where its failure surfaces as
	// Run's error instead of an infinite reassignment loop.
	failoverBudget := 3 * n
	for len(active) > 0 {
		if err := sleepCtx(ctx, c.opts.PollInterval); err != nil {
			return res, fmt.Errorf("cluster: %s sweep abandoned: %w", spec.Experiment, err)
		}
		var still []*assignment
		for _, a := range active {
			done, err := c.poll(ctx, a, merged, res)
			switch {
			case errors.Is(err, harness.ErrCheckpointDiverged):
				c.cancelAll(ctx, active)
				return res, err
			case err != nil:
				c.metrics.failover()
				now := time.Now().UnixNano()
				c.span("cluster.failover", a.shard.shard.Name, now, now, "error", err.Error())
				c.logf("cluster: shard %s failed (%v); reassigning", a.shard.shard.Name, err)
				if failoverBudget--; failoverBudget < 0 {
					c.span("cluster.abandon", a.shard.shard.Name, now, now, "reason", "failover_budget")
					continue
				}
				still = c.reassign(ctx, spec, a, merged, still)
			case done:
			default:
				still = append(still, a)
			}
		}
		active = still
		if merged.Complete() {
			c.cancelAll(ctx, active)
			break
		}
	}

	return c.endgame(ctx, driver, spec, merged, res)
}

// dispatch submits an assignment to its shard, preferring a healthy one;
// with the cluster fully unhealthy the assignment is abandoned to the
// endgame. Returns active with the assignment appended iff dispatched.
func (c *Coordinator) dispatch(ctx context.Context, spec jobs.Spec, a *assignment, active []*assignment) []*assignment {
	if !a.shard.prober.Healthy() {
		if next := c.nextHealthy(); next != nil {
			a.shard = next
		} else {
			now := time.Now().UnixNano()
			c.span("cluster.abandon", a.shard.shard.Name, now, now, "reason", "no_healthy_shard")
			return active
		}
	}
	req := SubmitRequest{
		Experiment: spec.Experiment,
		Quick:      spec.Quick,
		Seed:       spec.Seed,
		TimeoutMS:  int64(spec.Timeout / time.Millisecond),
		Rows:       a.rows,
	}
	start := time.Now().UnixNano()
	id, err := a.shard.client.Submit(ctx, req)
	if err != nil {
		a.shard.prober.MarkUnhealthy()
		c.metrics.failover()
		c.span("shard.dispatch", a.shard.shard.Name, start, time.Now().UnixNano(),
			"outcome", "failed", "error", err.Error())
		if next := c.nextHealthy(); next != nil {
			a.shard = next
			return c.dispatch(ctx, spec, a, active)
		}
		now := time.Now().UnixNano()
		c.span("cluster.abandon", a.shard.shard.Name, now, now, "reason", "no_healthy_shard")
		return active
	}
	c.span("shard.dispatch", a.shard.shard.Name, start, time.Now().UnixNano(),
		"job", id, "rows", rowsLabel(a.rows))
	a.jobID = id
	c.metrics.dispatched(a.shard.shard.Name)
	c.logf("cluster: dispatched %s %s to %s (%s)", spec.Experiment, rowsLabel(a.rows), a.shard.shard.Name, id)
	return append(active, a)
}

// poll advances one assignment: fetch the shard's checkpoint snapshot,
// adopt whatever is new (so a later death loses nothing already fetched),
// and classify the job state. done means the assignment finished and its
// final checkpoint is merged; an error means the assignment needs
// reassignment — except checkpoint divergence, which the caller treats as
// fatal.
func (c *Coordinator) poll(ctx context.Context, a *assignment, merged *harness.Checkpoint, res *Result) (bool, error) {
	if !a.shard.prober.Healthy() {
		return false, fmt.Errorf("shard %s unhealthy", a.shard.shard.Name)
	}
	cr, err := a.shard.client.Checkpoint(ctx, a.jobID)
	if err != nil {
		var se *StatusError
		if !errors.As(err, &se) {
			a.shard.prober.MarkUnhealthy()
		}
		return false, err
	}
	if cr.Checkpoint != nil {
		adopted, err := merged.Adopt(cr.Checkpoint, a.shard.shard.Name)
		if err != nil {
			return false, err
		}
		if len(adopted) > 0 {
			res.Adopted[a.shard.shard.Name] += len(adopted)
			c.metrics.adopted(a.shard.shard.Name, len(adopted))
			if a.retried {
				res.Retried += len(adopted)
				c.metrics.retried(len(adopted))
			}
			now := time.Now().UnixNano()
			c.span("shard.adopt", a.shard.shard.Name, now, now,
				"job", a.jobID, "batches", fmt.Sprintf("%d", len(adopted)))
		}
	}
	switch cr.State {
	case jobs.StateSucceeded:
		return true, nil
	case jobs.StateFailed, jobs.StateCancelled:
		return false, fmt.Errorf("job %s on %s %s", a.jobID, a.shard.shard.Name, cr.State)
	default:
		return false, nil
	}
}

// reassign re-dispatches an assignment's unmerged batches to a surviving
// shard: an explicit Include list when the sweep's batch count is known, a
// skip-annotated residue spec otherwise. Batches already merged are never
// recomputed.
func (c *Coordinator) reassign(ctx context.Context, spec jobs.Spec, a *assignment, merged *harness.Checkpoint, active []*assignment) []*assignment {
	// Best-effort cancel: a dead shard cannot answer, and need not.
	if a.jobID != "" {
		cctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
		_ = a.shard.client.Cancel(cctx, a.jobID)
		cancel()
	}
	next := &assignment{shard: a.shard, retried: true}
	if merged.TotalBatches > 0 {
		var missing []int
		for i := 0; i < merged.TotalBatches; i++ {
			if a.rows.Selected(i) && (i >= len(merged.Batches) || merged.Batches[i] == nil) {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			return active // everything already merged; nothing to reassign
		}
		next.rows = &jobs.RowSpec{Include: missing}
	} else {
		next.rows = &jobs.RowSpec{
			Mod:     a.rows.Mod,
			Keep:    a.rows.Keep,
			Include: append([]int(nil), a.rows.Include...),
			Skip:    merged.ComputedIndices(),
		}
	}
	return c.dispatch(ctx, spec, next, active)
}

// nextHealthy picks the next healthy shard round-robin, or nil.
func (c *Coordinator) nextHealthy() *shardState {
	for range c.shards {
		ss := c.shards[c.rr%len(c.shards)]
		c.rr++
		if ss.prober.Healthy() {
			return ss
		}
	}
	return nil
}

// cancelAll best-effort cancels outstanding assignments (used when the
// merge completes from partial checkpoints before every job reports done).
// The cancel RPCs derive from ctx via WithoutCancel: they carry its values
// but deliberately outlive its cancellation — a sweep abandoned by the
// caller still tells the shards to stop, bounded by the request timeout.
func (c *Coordinator) cancelAll(ctx context.Context, active []*assignment) {
	for _, a := range active {
		if a.jobID == "" {
			continue
		}
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.opts.RequestTimeout)
		_ = a.shard.client.Cancel(cctx, a.jobID)
		cancel()
	}
}

// endgame rebuilds the full table locally: the driver replays the merged
// checkpoint and recomputes any holes — batches no shard delivered — so no
// failure mode loses rows. This is also where byte-identity comes from:
// the final bytes are always rendered by one deterministic local replay,
// whatever subset of the cluster computed the inputs.
func (c *Coordinator) endgame(ctx context.Context, driver func(harness.Config) *harness.Table, spec jobs.Spec, merged *harness.Checkpoint, res *Result) (*Result, error) {
	egStart := time.Now().UnixNano()
	recomputed := 0
	tbl, err := runDriver(driver, harness.Config{
		Quick:   spec.Quick,
		Seed:    spec.Seed,
		Ctx:     ctx,
		Resume:  merged,
		OnBatch: func(*harness.Checkpoint) { recomputed++ },
	})
	if err != nil {
		return res, fmt.Errorf("cluster: endgame replay: %w", err)
	}
	res.Recomputed = recomputed
	c.metrics.recomputed(recomputed)
	var buf strings.Builder
	tbl.Render(&buf)
	res.Output = buf.String()

	res.TotalBatches = merged.Computed() + recomputed
	if merged.TotalBatches > 0 {
		res.TotalBatches = merged.TotalBatches
	}
	res.Lost = res.TotalBatches - merged.Computed() - recomputed
	c.metrics.rowsLost(res.Lost)
	c.span("cluster.endgame", "", egStart, time.Now().UnixNano(),
		"merged", fmt.Sprintf("%d", merged.Computed()), "total", fmt.Sprintf("%d", res.TotalBatches),
		"recomputed", fmt.Sprintf("%d", recomputed), "lost", fmt.Sprintf("%d", res.Lost))
	c.logf("cluster: %s complete: %d batches merged, %d recomputed locally, %d lost",
		spec.Experiment, merged.Computed(), recomputed, res.Lost)
	return res, nil
}

// runDriver executes a driver with panic isolation: a cancelled sweep (or
// any other driver panic) becomes an error, not a coordinator crash.
func runDriver(driver func(harness.Config) *harness.Table, cfg harness.Config) (tbl *harness.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cause, ok := r.(error); ok {
				err = cause
				return
			}
			err = fmt.Errorf("driver panic: %v", r)
		}
	}()
	return driver(cfg), nil
}

// rowsLabel renders a row spec for spans and logs.
func rowsLabel(r *jobs.RowSpec) string {
	switch {
	case r == nil:
		return "all rows"
	case len(r.Include) > 0:
		idx := append([]int(nil), r.Include...)
		sort.Ints(idx)
		return fmt.Sprintf("batches %v", idx)
	case r.Mod > 1:
		return fmt.Sprintf("batches %d mod %d (skip %d)", r.Keep, r.Mod, len(r.Skip))
	default:
		return fmt.Sprintf("all batches (skip %d)", len(r.Skip))
	}
}
