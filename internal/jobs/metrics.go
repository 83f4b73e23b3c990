package jobs

import (
	"errors"

	"locality/internal/obs"
	"locality/internal/tenant"
)

// poolMetrics is the pool's instrumentation surface. Every field is resolved
// once at pool construction; with Options.Metrics nil all fields are nil and
// every method call below is a no-op (obs metrics are nil-receiver safe), so
// an uninstrumented pool pays nothing.
type poolMetrics struct {
	reg *obs.Registry // per-tenant series are resolved lazily against this

	submitted     *obs.Counter
	deduped       *obs.Counter
	shedFull      *obs.Counter
	shedDrain     *obs.Counter
	shedUnknown   *obs.Counter
	shedInvalid   *obs.Counter
	shedQuota     *obs.Counter
	shedExhausted *obs.Counter
	succeeded     *obs.Counter
	failed        *obs.Counter
	cancelled     *obs.Counter
	panics        *obs.Counter
	batches       *obs.Counter
	queueDepth    *obs.Gauge
	running       *obs.Gauge
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	const (
		shedName = "locality_jobs_shed_total"
		shedHelp = "Submissions shed before enqueue, by reason."
		doneName = "locality_jobs_completed_total"
		doneHelp = "Jobs reaching a terminal state, by state."
	)
	return poolMetrics{
		reg:           reg,
		submitted:     reg.Counter("locality_jobs_submitted_total", "Jobs accepted into the queue."),
		deduped:       reg.Counter("locality_jobs_deduped_total", "Idempotent submissions answered with an existing job."),
		shedFull:      reg.Counter(shedName, shedHelp, "reason", "queue_full"),
		shedDrain:     reg.Counter(shedName, shedHelp, "reason", "draining"),
		shedUnknown:   reg.Counter(shedName, shedHelp, "reason", "unknown_experiment"),
		shedInvalid:   reg.Counter(shedName, shedHelp, "reason", "invalid_rows"),
		shedQuota:     reg.Counter(shedName, shedHelp, "reason", "tenant_quota"),
		shedExhausted: reg.Counter(shedName, shedHelp, "reason", "tenant_exhausted"),
		succeeded:     reg.Counter(doneName, doneHelp, "state", "succeeded"),
		failed:        reg.Counter(doneName, doneHelp, "state", "failed"),
		cancelled:     reg.Counter(doneName, doneHelp, "state", "cancelled"),
		panics:        reg.Counter("locality_jobs_panics_total", "Experiment panics recovered into job errors."),
		batches:       reg.Counter("locality_jobs_batches_total", "Freshly computed row batches across all jobs."),
		queueDepth:    reg.Gauge("locality_jobs_queue_depth", "Jobs waiting in the submission queue."),
		running:       reg.Gauge("locality_jobs_running", "Jobs currently executing on a worker."),
	}
}

// Per-tenant metric families. The label space is bounded by construction:
// pinned tenants (stable, operator-configured names) and the anonymous pot
// get their own series, while auto-registered tenants — whose key hashes
// rotate with traffic — aggregate under "other". Raw API keys never appear.
const (
	tenantAdmitName = "locality_tenant_admitted_total"
	tenantAdmitHelp = "Submissions admitted, by tenant."
	tenantShedName  = "locality_tenant_shed_total"
	tenantShedHelp  = "Submissions and streams shed by per-tenant admission, by tenant and reason."
	tenantStrmName  = "locality_tenant_streams_total"
	tenantStrmHelp  = "Event streams opened, by tenant."
)

// tenantLabel buckets a tenant into the bounded label space.
func tenantLabel(t *tenant.Tenant) string {
	if t == nil {
		return "other"
	}
	if t.Pinned() || t.ID() == tenant.AnonymousID {
		return t.ID()
	}
	return "other"
}

// shedReason classifies a tenant-layer rejection for the shed counter's
// reason label (a bounded, stable vocabulary).
func shedReason(err error) string {
	switch {
	case errors.Is(err, tenant.ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, tenant.ErrQueueFull), errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, tenant.ErrInFlightLimit):
		return "in_flight_limit"
	case errors.Is(err, tenant.ErrStreamLimit):
		return "stream_limit"
	case errors.Is(err, tenant.ErrExhausted):
		return "tenant_exhausted"
	default:
		return "other"
	}
}

// tenantAdmit counts one admitted submission for the tenant.
func (m poolMetrics) tenantAdmit(t *tenant.Tenant) {
	m.reg.Counter(tenantAdmitName, tenantAdmitHelp, "tenant", tenantLabel(t)).Inc()
}

// tenantShed counts one rejected submission or stream for the tenant (nil
// when the rejection happened before a tenant could be resolved).
func (m poolMetrics) tenantShed(t *tenant.Tenant, err error) {
	m.reg.Counter(tenantShedName, tenantShedHelp,
		"tenant", tenantLabel(t), "reason", shedReason(err)).Inc()
}

// streamOpened counts one admitted event stream for the tenant.
func (m poolMetrics) streamOpened(t *tenant.Tenant) {
	m.reg.Counter(tenantStrmName, tenantStrmHelp, "tenant", tenantLabel(t)).Inc()
}

// terminal counts a job's terminal state.
func (m poolMetrics) terminal(s State) {
	switch s {
	case StateSucceeded:
		m.succeeded.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	default:
		m.failed.Inc()
	}
}
