// Command localityd serves the experiment suite as a long-running job
// service: submissions land in a supervised bounded-queue worker pool
// (internal/jobs), progress is checkpointed batch by batch, and SIGTERM
// drains gracefully — readiness flips to 503, in-flight jobs run to the
// drain deadline, the rest are cancelled with their progress persisted for
// a resumed run to pick up byte-identically.
//
//	POST   /v1/jobs                 submit a job; 202 with the job ID, 429/503 when shed
//	GET    /v1/jobs                 list all jobs
//	GET    /v1/jobs/{id}            job snapshot (state, progress, result table)
//	GET    /v1/jobs/{id}/events     Server-Sent Events progress stream (see sse.go)
//	GET    /v1/jobs/{id}/checkpoint job state + latest checkpoint snapshot
//	DELETE /v1/jobs/{id}            request cancellation
//	GET    /healthz                 liveness (200 while the process serves)
//	GET    /readyz                  readiness (503 once draining)
//	GET    /metrics                 Prometheus text exposition (pool + HTTP + tenant metrics)
//
// Callers identify as tenants via the X-API-Key header (anonymous when
// absent). With -tenants-file, each tenant is admitted under its own quotas
// — submit rate, queued and in-flight caps, stream cap — and dispatched by
// weighted round-robin fair share, so one flooding tenant cannot starve the
// rest. With -idempotent (the default), duplicate submissions of the same
// determinism identity return the existing job instead of recomputing.
//
// Every retryable rejection (429 rate/quota/queue, 503 draining or
// overloaded) carries a Retry-After header derived from what the server
// knows — token-bucket refill deficit, queue drain estimate — and a
// structured JSON body, so clients (the cluster coordinator included) can
// back off with intent instead of guessing. See retry.go.
//
// With -coordinator the same server and pool front a cluster instead: each
// job runs as one sweep sharded across a static membership of worker
// localityd instances (-shards / -membership-file), merged in row order,
// and served back byte-identical to a single-process run. Every guarantee
// above — events, checkpoint route, tenancy, dedup, retention, drain —
// holds in both modes. See cluster.go.
//
// Telemetry is /metrics plus, with -trace-dir, one span trace artifact per
// process (read by cmd/localtrace): admission, queue, execution, one
// batch.commit span per row batch with its simulator round counts, and in
// coordinator mode the cluster.sweep span carrying the sweep's failover
// summary. Profiling is opt-in: -pprof-addr spawns net/http/pprof on a
// separate listener, never on the API port.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"locality/internal/cluster"
	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
	"locality/internal/store"
	"locality/internal/tenant"
)

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick,omitempty"`
	Seed       uint64 `json:"seed"`
	// TimeoutMS bounds the job's running time in milliseconds (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers computes the sweep's rows in parallel (same bytes, less wall
	// clock; see jobs.Spec.Workers).
	Workers int `json:"workers,omitempty"`
	// Rows, when non-nil, runs the job as one shard of a cluster sweep
	// (see jobs.Spec.Rows). Coordinators set it; humans rarely should.
	Rows *jobs.RowSpec `json:"rows,omitempty"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
	// Reason is the stable classification ("queue_full", "rate_limited",
	// "draining", "unknown_experiment", ...), when one applies.
	Reason string `json:"reason,omitempty"`
	// Tenant is the rejected tenant's public ID on per-tenant sheds (never
	// the raw API key).
	Tenant string `json:"tenant,omitempty"`
	// QueueLen/QueueCap report shed-time queue occupancy.
	QueueLen int `json:"queue_len,omitempty"`
	QueueCap int `json:"queue_cap,omitempty"`
}

// server wires the job pool to HTTP. It is constructed by newServer and
// torn down by drain, both exercised directly by the tests.
type server struct {
	pool *jobs.Pool
	// draining flips readiness before the pool drain begins, so /readyz
	// reports 503 for the whole shutdown window.
	draining atomic.Bool
	// inflight and requestTimeout are the backpressure limits (see limit);
	// rejected counts the requests the inflight cap sheds.
	inflight       chan struct{}
	requestTimeout time.Duration
	rejected       *obs.Counter
	// reg backs /metrics; the pool shares it. Nil disables instrumentation
	// (every obs call below is nil-safe).
	reg *obs.Registry
	// tr emits request spans (and parents the pool's job spans). Nil
	// disables tracing; every trace call below is nil-safe.
	tr *trace.Tracer
}

func newServer(pool *jobs.Pool, maxInflight int, requestTimeout time.Duration, reg *obs.Registry, tr *trace.Tracer) *server {
	if maxInflight <= 0 {
		maxInflight = 64
	}
	return &server{
		pool:           pool,
		inflight:       make(chan struct{}, maxInflight),
		requestTimeout: requestTimeout,
		rejected:       reg.Counter("locality_http_rejected_total", "Requests shed by the concurrency limiter."),
		reg:            reg,
		tr:             tr,
	}
}

// handler builds the routed, instrumented, limited, deadline-bounded HTTP
// handler.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("get", s.handleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() || s.pool.Draining() {
			writeRetryable(w, http.StatusServiceUnavailable, jobs.ErrDraining,
				errorResponse{Error: "draining", Reason: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}))
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	// The events stream mounts outside the limiter (see sse.go): the outer
	// mux's more-specific pattern wins over the catch-all that fronts every
	// other route with the concurrency cap and per-request deadline.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleEvents))
	outer.Handle("/", s.limit(mux))
	return outer
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (the SSE handler needs Flush) through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route with a latency histogram, a per-status request
// counter, and — with a tracer attached — one span per request, continuing
// the caller's trace when the Locality-Trace header carries one and
// exposing the request's trace ID as the histogram's exemplar. Routes are
// named explicitly (not from the request path) so the label space stays
// bounded.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("locality_http_request_seconds",
		"HTTP request latency by route.", obs.DefTimeBuckets, "route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parent, _ := trace.Parse(r.Header.Get(trace.Header))
		sp := s.tr.Start(parent, "http."+route, "method", r.Method)
		if sp != nil {
			r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		sp.SetAttr("status", strconv.Itoa(sw.status))
		sp.End()
		secs := time.Since(start).Seconds()
		if id := sp.TraceID(); id != "" {
			hist.ObserveExemplar(secs, id)
		} else {
			hist.Observe(secs)
		}
		s.reg.Counter("locality_http_requests_total",
			"HTTP requests by route and status code.",
			"route", route, "code", strconv.Itoa(sw.status)).Inc()
	}
}

// handleMetrics serves the Prometheus text exposition. It is deliberately
// outside instrument: scrapes should not perturb the latency histograms
// they read.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteProm(w)
}

// errOverloaded is limit's rejection reason. It matches no queue or
// tenant sentinel, so its Retry-After falls to the 1s floor: concurrency
// slots turn over per request, much faster than the job queue drains.
var errOverloaded = errors.New("too many concurrent requests")

// limit is the backpressure middleware: at most cap(inflight) concurrent
// requests, each bounded by the per-request timeout. Excess requests are
// rejected immediately with 503 + Retry-After — the service sheds, it never
// queues invisibly.
func (s *server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.rejected.Inc()
			writeRetryable(w, http.StatusServiceUnavailable, errOverloaded,
				errorResponse{Error: errOverloaded.Error(), Reason: "overloaded"})
			return
		}
		if s.requestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("decoding request: %v", err), Reason: "bad_request"})
		return
	}
	spec := jobs.Spec{
		// Canonical before the IdentityKey call below, so the trace ID
		// agrees with the pool's dedup and store keys for "e1" and "E1".
		Experiment: strings.ToUpper(req.Experiment),
		Quick:      req.Quick,
		Seed:       req.Seed,
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Workers:    req.Workers,
		Rows:       req.Rows,
	}
	// A request with no inbound trace adopts the spec's identity-derived
	// trace ID, so resubmitting the same spec lands in the same trace on
	// every process that touches it (DESIGN.md §14).
	sp := trace.SpanFromContext(r.Context())
	sp.JoinTrace(trace.IDFromIdentity(spec.IdentityKey()))
	res, err := s.pool.SubmitTenantSpan(sp.Context(), r.Header.Get(tenant.Header), spec)
	if err != nil {
		status := shedStatus(err)
		if retryableStatus(status) {
			writeRetryable(w, status, err, shedResponse(err))
			return
		}
		writeJSON(w, status, shedResponse(err))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+res.ID)
	writeJSON(w, http.StatusAccepted, res)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.pool.List()})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "unknown job", Reason: "not_found"})
		return
	}
	s.joinJobTrace(r, j)
	writeJSON(w, http.StatusOK, j)
}

// joinJobTrace lands a poll's request span in the polled job's trace: a
// traceless request (a bare curl, a coordinator without the header)
// adopts the job's identity-derived trace ID, so every touch of a job —
// from any process — assembles into one tree.
func (s *server) joinJobTrace(r *http.Request, j jobs.Job) {
	trace.SpanFromContext(r.Context()).JoinTrace(trace.IDFromIdentity(j.Spec.IdentityKey()))
}

// handleCheckpoint serves the job's state together with its latest
// checkpoint snapshot in one response. The cluster coordinator polls this
// endpoint: a single fetch both tracks progress and harvests partial work,
// so a shard that dies a moment later has already surrendered everything it
// committed.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.pool.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "unknown job", Reason: "not_found"})
		return
	}
	s.joinJobTrace(r, j)
	ck, _ := s.pool.Checkpoint(id)
	writeJSON(w, http.StatusOK, map[string]any{"state": j.State, "checkpoint": ck})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.pool.Cancel(r.PathValue("id")); err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: err.Error(), Reason: "not_found"})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
}

// drain is the graceful-shutdown sequence: readiness flips first (load
// balancers stop routing while the listener still answers probes), then the
// pool drains to the deadline — cancelling and checkpointing whatever
// remains. The returned error reports a forced (deadline-hit) drain.
func (s *server) drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Close(ctx)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func main() {
	var (
		addr           = flag.String("addr", ":8177", "listen address")
		coordinator    = flag.Bool("coordinator", false, "run as a cluster front-end sharding sweeps across worker instances")
		shardsFlag     = flag.String("shards", "", "comma-separated worker membership: name=url or url (coordinator mode)")
		membershipFile = flag.String("membership-file", "", "file with one worker per line: name=url or url, # comments (coordinator mode)")
		shardTimeout   = flag.Duration("shard-timeout", 5*time.Second, "per-attempt HTTP timeout against a worker shard")
		shardRetries   = flag.Int("shard-retries", 3, "attempt budget per shard API call")
		pollInterval   = flag.Duration("poll-interval", 100*time.Millisecond, "coordinator dispatch/merge cadence")
		probeInterval  = flag.Duration("probe-interval", 500*time.Millisecond, "shard health probe cadence")
		probeThreshold = flag.Int("probe-threshold", 3, "consecutive probe failures that mark a shard unhealthy")
		workers        = flag.Int("workers", 2, "concurrent experiment runners (always 1 with -coordinator)")
		queueDepth     = flag.Int("queue", 16, "submission queue bound (excess is shed)")
		checkpointDir  = flag.String("checkpoint-dir", "", "directory for job checkpoints (empty = in-memory only)")
		storeDir       = flag.String("store-dir", "", "directory for the persistent content-addressed result cache (empty = disabled)")
		storeMaxBytes  = flag.Int64("store-max-bytes", store.DefaultMaxBytes, "result-cache byte budget; oldest segments are evicted past it")
		retention      = flag.Int("retention", 4096, "terminal jobs kept pollable; the oldest (and their dedup entries) are evicted past it (0 = unlimited)")
		retryBudget    = flag.Int("retry", 1, "attempts per job for transient failures")
		retryBase      = flag.Duration("retry-base", 100*time.Millisecond, "base backoff between retry attempts")
		retryMax       = flag.Duration("retry-max", 5*time.Second, "backoff cap")
		backoffSeed    = flag.Uint64("backoff-seed", 1, "seed for the deterministic backoff jitter")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		requestTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handler deadline")
		maxInflight    = flag.Int("max-inflight", 64, "concurrent request limit (excess rejected 503)")
		pprofAddr      = flag.String("pprof-addr", "", "opt-in net/http/pprof listen address (empty = disabled)")
		traceDir       = flag.String("trace-dir", "", "directory for JSONL span trace artifacts (empty = tracing disabled)")
		traceProc      = flag.String("trace-proc", "", "process name stamped on this instance's spans (default localityd-<pid>)")
		tenantsFile    = flag.String("tenants-file", "", "JSON tenant config: default quotas, pinned tenants keyed by API key (empty = permissive)")
		idempotent     = flag.Bool("idempotent", true, "dedup submissions by determinism identity (duplicates return the existing job)")
		version        = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("localityd %s %s %s/%s\n", obs.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	var co *cluster.Options
	if *coordinator {
		shards, err := membership(*shardsFlag, *membershipFile)
		if err != nil {
			log.Fatal(err)
		}
		co = &cluster.Options{
			Shards:         shards,
			RequestTimeout: *shardTimeout,
			Retries:        *shardRetries,
			Backoff:        harness.Backoff{Base: *retryBase, Max: *retryMax, Seed: *backoffSeed},
			PollInterval:   *pollInterval,
			ProbeInterval:  *probeInterval,
			ProbeThreshold: *probeThreshold,
			Logf:           log.Printf,
		}
	} else if *shardsFlag != "" || *membershipFile != "" {
		log.Fatal("localityd: -shards/-membership-file require -coordinator")
	}
	tcfg, err := loadTenants(*tenantsFile)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(*addr, jobs.Options{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CheckpointDir: *checkpointDir,
		RetryBudget:   *retryBudget,
		Backoff:       harness.Backoff{Base: *retryBase, Max: *retryMax, Seed: *backoffSeed},
		Tenancy:       tcfg,
		Idempotent:    *idempotent,
		Retention:     *retention,
	}, co, storeConfig{dir: *storeDir, maxBytes: *storeMaxBytes},
		traceConfig{dir: *traceDir, proc: *traceProc},
		*drainTimeout, *requestTimeout, *maxInflight, *pprofAddr); err != nil {
		log.Fatal(err)
	}
}

// storeConfig carries the -store-dir flag set; the zero value disables the
// persistent result cache.
type storeConfig struct {
	dir      string
	maxBytes int64
}

// open builds the result store, registering its metrics on reg. A nil
// store (empty dir) is legal everywhere downstream.
func (c storeConfig) open(reg *obs.Registry) (*store.Store, error) {
	if c.dir == "" {
		return nil, nil
	}
	return store.Open(store.Options{Dir: c.dir, MaxBytes: c.maxBytes, Metrics: reg})
}

// traceConfig carries the -trace-dir/-trace-proc flag set; the zero value
// disables tracing.
type traceConfig struct {
	dir  string
	proc string
}

// open builds the span tracer, registering its span counter on reg. A nil
// tracer (empty dir) is legal everywhere downstream.
func (c traceConfig) open(reg *obs.Registry) (*trace.Tracer, error) {
	if c.dir == "" {
		return nil, nil
	}
	proc := c.proc
	if proc == "" {
		proc = fmt.Sprintf("localityd-%d", os.Getpid())
	}
	return trace.Open(trace.Options{Dir: c.dir, Proc: proc, Metrics: reg})
}

// loadTenants reads the -tenants-file JSON (a tenant.Config: default
// limits, optional max_tenants, pinned tenants with per-tenant quotas).
// Empty path means permissive defaults — every caller admitted subject only
// to the global queue bound.
func loadTenants(path string) (*tenant.Config, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("localityd: tenants file: %w", err)
	}
	var cfg tenant.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("localityd: tenants file %s: %w", path, err)
	}
	return &cfg, nil
}

// run resolves the listen address; serve owns the lifecycle.
func run(addr string, poolOpts jobs.Options, co *cluster.Options, sc storeConfig, tc traceConfig, drainTimeout, requestTimeout time.Duration, maxInflight int, pprofAddr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("localityd: listen: %w", err)
	}
	return serve(ln, poolOpts, co, sc, tc, drainTimeout, requestTimeout, maxInflight, pprofAddr)
}

// pprofHandler routes the net/http/pprof endpoints. It backs the opt-in
// -pprof-addr listener only — profiling never shares the API port, so a
// scrape-armed deployment exposes nothing extra by default.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the service on an existing listener until SIGTERM/SIGINT (or
// a listener error), then drains: readiness flips, the pool runs down to
// the drain deadline (checkpointing whatever it must cancel), the listener
// shuts down, and every goroutine is reaped before serve returns. A non-nil
// co selects coordinator mode (see coordinatorOptions).
func serve(ln net.Listener, poolOpts jobs.Options, co *cluster.Options, sc storeConfig, tc traceConfig, drainTimeout, requestTimeout time.Duration, maxInflight int, pprofAddr string) error {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	poolOpts.Metrics = reg
	st, err := sc.open(reg)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
		poolOpts.Store = st
	}
	tr, err := tc.open(reg)
	if err != nil {
		return err
	}
	if tr != nil {
		defer tr.Close()
		poolOpts.Tracer = tr
	}
	name := "localityd"
	if co != nil {
		name = "localityd (coordinator)"
		if poolOpts, err = coordinatorOptions(poolOpts, *co); err != nil {
			return err
		}
	}
	s := newServer(jobs.New(poolOpts), maxInflight, requestTimeout, reg, tr)
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("%s: pprof listen: %w", name, err)
		}
		psrv := &http.Server{Handler: pprofHandler(), ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close()
		go func() {
			log.Printf("%s pprof listening on %s", name, pln.Addr())
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("%s: pprof serve: %v", name, err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", name, ln.Addr())
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("%s: serve: %w", name, err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("%s: draining (deadline %v)", name, drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.drain(drainCtx); err != nil {
		log.Printf("%s: %v (remaining progress checkpointed)", name, err)
	}
	// A deadline-hit drain consumes the whole budget force-cancelling jobs —
	// which is what releases long-lived handlers (the SSE streams) to finish
	// their final writes. Connection teardown then needs its own brief grace,
	// or an exhausted drain context turns every forced drain into a spurious
	// shutdown error.
	shutCtx := drainCtx
	if drainCtx.Err() != nil {
		var shutCancel context.CancelFunc
		shutCtx, shutCancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("%s: shutdown: %w", name, err)
	}
	log.Printf("%s: drained", name)
	return nil
}
