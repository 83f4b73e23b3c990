// Package tenant is the multi-tenant admission layer's state: an
// API-key-keyed registry of per-tenant quotas (in-flight caps, queued caps,
// a submit-rate token bucket) with bounded-FIFO retention of auto-registered
// tenants, and a weighted round-robin fair queue so no tenant can starve the
// others out of the bounded submission queue.
//
// The package is deliberately pure, following the bounded-retention /
// no-goroutines-in-domain guardrails: it holds no locks, spawns no
// goroutines, and never reads the clock. Every method takes the current
// time as caller-supplied monotonic nanoseconds, and callers (the jobs pool
// holds its own mutex) serialize access externally. Given one sequence of
// (nanos, operation) calls the registry's decisions are a pure function of
// that sequence — which is what lets the load rig replay admission traffic
// deterministically and lets tests drive quota edges with a fake clock.
package tenant

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Header is the HTTP request header carrying a caller's API key. The
// daemon, the cluster coordinator (which forwards it to worker shards) and
// the load generator all agree on this name.
const Header = "X-API-Key"

// AnonymousID is the tenant ID assigned to requests without an API key.
// Unkeyed callers share one tenant — one quota pot — so anonymity is never
// a way around fairness.
const AnonymousID = "anonymous"

// Limits are one tenant's quotas. The zero value of each field means
// "unlimited" / "disabled", so the zero Limits admits everything — quotas
// are opt-in per deployment.
type Limits struct {
	// MaxInFlight caps jobs admitted and not yet terminal (queued plus
	// running). 0 = unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxQueued caps jobs waiting in the tenant's fair-share queue.
	// 0 = unlimited.
	MaxQueued int `json:"max_queued,omitempty"`
	// Rate is the submit token bucket's refill rate in tokens per second;
	// Burst is its capacity. Rate 0 disables rate limiting. Burst 0 with a
	// positive Rate defaults to ceil(Rate) (one second of refill).
	Rate  float64 `json:"rate,omitempty"`
	Burst int     `json:"burst,omitempty"`
	// MaxStreams caps concurrent event streams (SSE subscriptions).
	// 0 = unlimited.
	MaxStreams int `json:"max_streams,omitempty"`
	// Weight is the tenant's fair-share weight: a weight-w tenant may be
	// served up to w consecutive jobs per round-robin turn. 0 means 1.
	Weight int `json:"weight,omitempty"`
}

// weight returns the effective WRR weight.
func (l Limits) weight() int {
	if l.Weight <= 0 {
		return 1
	}
	return l.Weight
}

// burst returns the effective token bucket capacity.
func (l Limits) burst() int {
	if l.Burst > 0 {
		return l.Burst
	}
	if l.Rate > 0 {
		b := int(l.Rate)
		if float64(b) < l.Rate {
			b++
		}
		return b
	}
	return 0
}

// Pinned declares one statically configured tenant: a stable name (the
// metric label), its API key, and quota overrides. Pinned tenants are never
// evicted and get their own per-tenant metric series.
type Pinned struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Limits Limits `json:"limits"`
}

// Config configures a Registry.
type Config struct {
	// Defaults are the quotas for auto-registered tenants (and for pinned
	// tenants whose Limits are zero in every field).
	Defaults Limits `json:"defaults"`
	// MaxTenants bounds the auto-registered tenant set (FIFO retention:
	// when full, the oldest idle auto tenant is evicted; if every auto
	// tenant is busy, registration is refused with ErrExhausted). Pinned
	// tenants do not count against the bound. 0 means DefaultMaxTenants.
	MaxTenants int `json:"max_tenants,omitempty"`
	// Pinned lists the statically configured tenants.
	Pinned []Pinned `json:"pinned,omitempty"`
}

// DefaultMaxTenants bounds auto-registered tenant retention when
// Config.MaxTenants is zero.
const DefaultMaxTenants = 256

// Sentinels. Every admission rejection classifies with errors.Is.
var (
	// ErrRateLimited rejects a submit that found the token bucket empty.
	ErrRateLimited = errors.New("tenant: submit rate limit exceeded")
	// ErrQueueFull rejects a submit at the tenant's queued-jobs cap.
	ErrQueueFull = errors.New("tenant: per-tenant queue full")
	// ErrInFlightLimit rejects a submit at the tenant's in-flight cap.
	ErrInFlightLimit = errors.New("tenant: in-flight job limit reached")
	// ErrStreamLimit rejects an event-stream subscription at the tenant's
	// concurrent-stream cap.
	ErrStreamLimit = errors.New("tenant: concurrent stream limit reached")
	// ErrExhausted rejects registration when the auto-tenant set is full of
	// busy tenants (bounded retention is a hard bound, not a hint).
	ErrExhausted = errors.New("tenant: tenant table exhausted")
)

// LimitError is a structured admission rejection: which tenant, which
// quota, the occupancy that tripped it, and how long the caller should wait
// before retrying (0 when the caller should derive its own estimate).
type LimitError struct {
	// Tenant is the rejected tenant's ID (never the raw API key).
	Tenant string
	// Reason is the sentinel explaining the rejection.
	Reason error
	// RetryAfterNanos suggests a wait before retrying: for rate limits it
	// is the deterministic time until the next token accrues.
	RetryAfterNanos int64
	// Used and Cap are the occupancy and bound of the tripped quota.
	Used, Cap int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("tenant %s: %v (%d/%d)", e.Tenant, e.Reason, e.Used, e.Cap)
}

// Unwrap exposes the reason to errors.Is.
func (e *LimitError) Unwrap() error { return e.Reason }

// Tenant is one tenant's admission state. All fields are managed by the
// Registry; callers read the exported accessors only.
type Tenant struct {
	id     string
	key    string
	limits Limits
	pinned bool
	seq    int // registration order, the FIFO retention key

	tokens    float64
	lastNanos int64
	hasRefill bool // first refill initializes lastNanos instead of accruing
	queued    int
	running   int
	streams   int
	fifo      []any
}

// ID returns the tenant's stable identifier: the pinned name, or
// "t-<hash8>" for auto-registered keys (raw API keys never leave the
// registry — identifiers on metrics and logs are hashes, per the
// bounded-retention/no-raw-identifier discipline).
func (t *Tenant) ID() string { return t.id }

// Pinned reports whether the tenant was statically configured.
func (t *Tenant) Pinned() bool { return t.pinned }

// Limits returns the tenant's quotas.
func (t *Tenant) Limits() Limits { return t.limits }

// Queued returns the tenant's fair-queue occupancy.
func (t *Tenant) Queued() int { return t.queued }

// Streams returns the tenant's open event-stream count.
func (t *Tenant) Streams() int { return t.streams }

// idle reports whether the tenant holds no live state (evictable).
func (t *Tenant) idle() bool {
	return t.queued == 0 && t.running == 0 && t.streams == 0
}

// hashID derives the stable public identifier for an API key.
func hashID(key string) string {
	if key == "" {
		return AnonymousID
	}
	sum := sha256.Sum256([]byte(key))
	return "t-" + hex.EncodeToString(sum[:4])
}

// Registry is the tenant table plus the weighted round-robin fair queue.
// It is NOT safe for concurrent use: the owner (the jobs pool) serializes
// every call under its own mutex, and injects the clock as monotonic
// nanoseconds — the registry itself is pure.
type Registry struct {
	cfg     Config
	byKey   map[string]*Tenant
	ring    []*Tenant // round-robin order: pinned first, then autos by registration
	cursor  int       // ring index of the tenant currently being served
	burst   int       // consecutive serves to ring[cursor] this turn
	queued  int       // total queued across tenants
	nextSeq int
	autos   int // auto-registered tenant count (retention bound)
}

// NewRegistry builds the registry with its pinned tenants installed.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{cfg: cfg, byKey: make(map[string]*Tenant)}
	for _, p := range cfg.Pinned {
		limits := p.Limits
		if limits == (Limits{}) {
			limits = cfg.Defaults
		}
		t := &Tenant{id: p.Name, key: p.Key, limits: limits, pinned: true, seq: r.nextSeq}
		r.nextSeq++
		r.byKey[p.Key] = t
		r.ring = append(r.ring, t)
	}
	return r
}

// maxTenants returns the effective auto-tenant retention bound.
func (r *Registry) maxTenants() int {
	if r.cfg.MaxTenants > 0 {
		return r.cfg.MaxTenants
	}
	return DefaultMaxTenants
}

// Lookup resolves an API key to its tenant, auto-registering unknown keys
// under the default limits. Registration enforces bounded FIFO retention:
// at the bound, the oldest idle auto tenant is evicted; when every auto
// tenant is busy the lookup fails with ErrExhausted (wrapped in a
// *LimitError) rather than growing without bound.
func (r *Registry) Lookup(key string) (*Tenant, error) {
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	if r.autos >= r.maxTenants() && !r.evictOldestIdle() {
		return nil, &LimitError{Tenant: hashID(key), Reason: ErrExhausted,
			Used: r.autos, Cap: r.maxTenants()}
	}
	t := &Tenant{id: hashID(key), key: key, limits: r.cfg.Defaults, seq: r.nextSeq}
	r.nextSeq++
	r.byKey[key] = t
	r.ring = append(r.ring, t)
	r.autos++
	return t, nil
}

// evictOldestIdle drops the auto tenant with the smallest registration
// sequence among idle ones. Reports whether an eviction happened.
func (r *Registry) evictOldestIdle() bool {
	victim := -1
	for i, t := range r.ring {
		if t.pinned || !t.idle() {
			continue
		}
		if victim < 0 || t.seq < r.ring[victim].seq {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	t := r.ring[victim]
	delete(r.byKey, t.key)
	r.ring = append(r.ring[:victim], r.ring[victim+1:]...)
	r.autos--
	switch {
	case len(r.ring) == 0:
		r.cursor, r.burst = 0, 0
	case victim < r.cursor:
		r.cursor--
	case victim == r.cursor:
		r.burst = 0
		if r.cursor >= len(r.ring) {
			r.cursor = 0
		}
	}
	return true
}

// refill accrues tokens up to now. The first call only anchors the clock:
// a fresh tenant starts with a full bucket, so bursts up to Burst are
// admitted before the rate bites.
func (t *Tenant) refill(now int64) {
	if t.limits.Rate <= 0 {
		return
	}
	if !t.hasRefill {
		t.hasRefill = true
		t.lastNanos = now
		t.tokens = float64(t.limits.burst())
		return
	}
	if now <= t.lastNanos {
		return
	}
	t.tokens += float64(now-t.lastNanos) / 1e9 * t.limits.Rate
	if max := float64(t.limits.burst()); t.tokens > max {
		t.tokens = max
	}
	t.lastNanos = now
}

// Enqueue admits one submission at time now (monotonic nanoseconds) and
// appends item to the tenant's fair queue. Rejections are structured
// *LimitError values; the quota checks run in a fixed order (rate, queued,
// in-flight) so rejection reasons are deterministic.
func (r *Registry) Enqueue(t *Tenant, item any, now int64) error {
	if err := t.rateCheck(now); err != nil {
		return err
	}
	if t.limits.MaxQueued > 0 && t.queued >= t.limits.MaxQueued {
		return &LimitError{Tenant: t.id, Reason: ErrQueueFull,
			Used: t.queued, Cap: t.limits.MaxQueued}
	}
	if t.limits.MaxInFlight > 0 && t.queued+t.running >= t.limits.MaxInFlight {
		return &LimitError{Tenant: t.id, Reason: ErrInFlightLimit,
			Used: t.queued + t.running, Cap: t.limits.MaxInFlight}
	}
	if t.limits.Rate > 0 {
		t.tokens--
	}
	t.fifo = append(t.fifo, item)
	t.queued++
	r.queued++
	return nil
}

// rateCheck refills the token bucket to now and fails with ErrRateLimited
// (and the bucket-derived retry hint) if no token is available. It does not
// consume a token.
func (t *Tenant) rateCheck(now int64) error {
	t.refill(now)
	if t.limits.Rate > 0 && t.tokens < 1 {
		deficit := 1 - t.tokens
		wait := int64(deficit / t.limits.Rate * 1e9)
		if wait < 1 {
			wait = 1
		}
		return &LimitError{Tenant: t.id, Reason: ErrRateLimited,
			RetryAfterNanos: wait, Used: t.limits.burst(), Cap: t.limits.burst()}
	}
	return nil
}

// Admit charges the tenant's rate bucket for a request that consumes no
// queue or in-flight capacity — the cache-hit path: a submission answered
// from the result store occupies no worker and holds no slot, but it is
// still one API-visible request, so it must pay the same per-request token
// the queued path pays (otherwise a hot cached spec becomes an unmetered
// bypass of the tenant's rate quota). MaxQueued/MaxInFlight are deliberately
// not checked: those bound resource occupancy, and an admission that
// occupies nothing should not be rejected for someone else's occupancy.
func (r *Registry) Admit(t *Tenant, now int64) error {
	if err := t.rateCheck(now); err != nil {
		return err
	}
	if t.limits.Rate > 0 {
		t.tokens--
	}
	return nil
}

// Dequeue pops the next item under weighted round-robin: the cursor tenant
// is served up to Weight consecutive items, then the turn passes to the
// next tenant with queued work. A flooding tenant therefore gets at most
// weight/(sum of active weights) of the dequeue bandwidth — no tenant
// starves. The popped item's tenant transitions queued -> running.
func (r *Registry) Dequeue() (any, *Tenant, bool) {
	if r.queued == 0 || len(r.ring) == 0 {
		return nil, nil, false
	}
	for probes := 0; probes <= len(r.ring); probes++ {
		t := r.ring[r.cursor]
		if len(t.fifo) > 0 && r.burst < t.limits.weight() {
			item := t.fifo[0]
			t.fifo[0] = nil // release the reference; the slice is reused
			t.fifo = t.fifo[1:]
			if len(t.fifo) == 0 {
				t.fifo = nil
			}
			r.burst++
			t.queued--
			t.running++
			r.queued--
			if len(t.fifo) == 0 || r.burst >= t.limits.weight() {
				r.advance()
			}
			return item, t, true
		}
		r.advance()
	}
	return nil, nil, false
}

// advance moves the round-robin turn to the next tenant.
func (r *Registry) advance() {
	if len(r.ring) == 0 {
		r.cursor, r.burst = 0, 0
		return
	}
	r.cursor = (r.cursor + 1) % len(r.ring)
	r.burst = 0
}

// Finish records a running job's terminal state, releasing its in-flight
// slot.
func (r *Registry) Finish(t *Tenant) {
	if t.running > 0 {
		t.running--
	}
}

// AcquireStream admits one event-stream subscription against the tenant's
// concurrent-stream cap.
func (r *Registry) AcquireStream(t *Tenant) error {
	if t.limits.MaxStreams > 0 && t.streams >= t.limits.MaxStreams {
		return &LimitError{Tenant: t.id, Reason: ErrStreamLimit,
			Used: t.streams, Cap: t.limits.MaxStreams}
	}
	t.streams++
	return nil
}

// ReleaseStream releases a stream slot.
func (r *Registry) ReleaseStream(t *Tenant) {
	if t.streams > 0 {
		t.streams--
	}
}

// QueuedTotal returns the number of items queued across all tenants.
func (r *Registry) QueuedTotal() int { return r.queued }
