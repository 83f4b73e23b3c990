// Package trace is the deterministic distributed-tracing layer: spans
// propagated from submit through shard dispatch and sweep batch commits to
// the result store, persisted as JSONL artifacts and reassembled into
// causal trees by cmd/localtrace. It is the repository's one telemetry
// event stream: per-round simulator counters ride the batch.commit spans
// (observe.go) rather than a separate artifact.
//
// The package follows the obsinert tradition of internal/obs (DESIGN.md
// §9, §14): tracing observes and never influences. Trace IDs derive from
// the job determinism identity (jobs.Spec.IdentityKey), span IDs from a
// seeded per-process counter, and wall-clock reads are confined to
// clock.go — the package's single sanctioned clock file, carved out of
// the localvet nowallclock ban function by function. A nil *Tracer is
// valid everywhere and every method on it (and on the nil *Span it hands
// out) is a no-op, so "tracing off" is a nil pointer and zero work, and
// a sweep's rendered bytes are byte-identical with tracing on or off.
//
// Trace context crosses process boundaries in the Locality-Trace header
// ("<trace>/<span>"): localityd parses it into the route span's parent,
// and the cluster coordinator threads its sweep span's context into every
// shard call, so a multi-process sweep reassembles into one tree.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/obs"
)

const (
	// Schema versions the trace-artifact JSONL layout.
	Schema = "locality-trace/v1"
	// Header is the HTTP header carrying a rendered SpanContext.
	// internal/cluster pins the same string without importing this
	// package; a wire test asserts the two stay equal.
	Header = "Locality-Trace"
)

// SpanContext identifies a position in a trace: the trace a span belongs
// to and the span itself. The zero value is "no context".
type SpanContext struct {
	Trace string
	Span  string
}

// String renders the context for the Locality-Trace header
// ("<trace>/<span>"); empty when there is no span to reference.
func (sc SpanContext) String() string {
	if sc.Span == "" {
		return ""
	}
	return sc.Trace + "/" + sc.Span
}

// Parse decodes a Locality-Trace header value. Malformed or empty values
// yield the zero context — an inbound request with a bad header simply
// starts its own trace, it is never rejected for telemetry's sake.
func Parse(v string) (SpanContext, bool) {
	i := strings.IndexByte(v, '/')
	if i < 0 || i == len(v)-1 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: v[:i], Span: v[i+1:]}, true
}

// IDFromIdentity derives a trace ID from a job determinism identity
// (jobs.Spec.IdentityKey, 64 hex chars): the first 16 hex characters —
// collision-safe at tracing scale and, crucially, deterministic: the
// same spec traces under the same ID on every process that handles it.
func IDFromIdentity(ikey string) string {
	if len(ikey) >= 16 {
		return ikey[:16]
	}
	return ikey
}

// Options configures a Tracer.
type Options struct {
	// Dir is the artifact directory; the tracer writes
	// <Dir>/<Proc>.trace.jsonl (append mode: a restarted process
	// continues its file rather than truncating spans already written).
	Dir string
	// Proc names this process; it prefixes every span ID this tracer
	// mints, so IDs from different processes never collide and
	// cmd/localtrace can attribute spans to processes. Default "proc".
	Proc string
	// Seed starts the span-ID counter (tests pin IDs with it).
	Seed uint64
	// Metrics, when non-nil, receives the spans-emitted counter.
	Metrics *obs.Registry
}

// A Tracer mints spans and persists them as JSONL records. Safe for
// concurrent use; nil-receiver safe throughout (the "tracing disabled"
// idiom, mirroring *obs.Registry).
type Tracer struct {
	proc  string
	seq   atomic.Uint64
	spans *obs.Counter

	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	err error
}

// Record is one JSONL line of a trace artifact; Type discriminates
// ("meta" or "span"). Durations are nanoseconds; Start is Unix nanos.
// Exported so cmd/localtrace and the analysis half of this package share
// one schema.
type Record struct {
	Type string `json:"type"`

	// meta
	Schema string `json:"schema,omitempty"`
	Stamp  string `json:"stamp,omitempty"`
	Go     string `json:"go,omitempty"`

	// span
	Trace  string            `json:"trace,omitempty"`
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name,omitempty"`
	Proc   string            `json:"proc,omitempty"`
	Start  int64             `json:"start_unix_nanos,omitempty"`
	Dur    int64             `json:"duration_nanos,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Open creates a tracer writing <Dir>/<Proc>.trace.jsonl (creating Dir
// when missing), stamping a meta record. Each record is one unbuffered
// write, so a SIGKILLed process loses at most the span it was mid-writing
// (the analyzer's torn-tail tolerance covers that, mirroring the result
// store's recovery idiom).
func Open(o Options) (*Tracer, error) {
	if o.Proc == "" {
		o.Proc = "proc"
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: artifact dir: %w", err)
	}
	path := filepath.Join(o.Dir, o.Proc+".trace.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: open artifact: %w", err)
	}
	t := &Tracer{
		proc:  o.Proc,
		f:     f,
		enc:   json.NewEncoder(f),
		spans: o.Metrics.Counter("locality_trace_spans_total", "Trace spans emitted to the artifact."),
	}
	t.seq.Store(o.Seed)
	t.write(Record{
		Type:   "meta",
		Schema: Schema,
		Stamp:  now().UTC().Format(time.RFC3339Nano),
		Go:     runtime.Version(),
		Proc:   o.Proc,
	})
	return t, nil
}

// write encodes one record under the lock, latching the first error —
// tracing must never fail the work it observes.
func (t *Tracer) write(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(rec)
}

// Close flushes and closes the artifact, returning the first error of
// the tracer's lifetime. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.f.Close(); t.err == nil {
		t.err = err
	}
	return t.err
}

// Start mints a span under parent. attrs are alternating key/value
// pairs. The span inherits parent.Trace (join a trace later with
// JoinTrace); it is emitted when End is called. On a nil tracer Start
// returns nil — a valid no-op span.
func (t *Tracer) Start(parent SpanContext, name string, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:     t,
		trace:  parent.Trace,
		id:     fmt.Sprintf("%s-%d", t.proc, t.seq.Add(1)),
		parent: parent.Span,
		name:   name,
		start:  now(),
		attrs:  attrMap(nil, attrs),
	}
}

// Emit records one complete span in a single call — the bridge for
// callers that measured an interval themselves (the cluster
// coordinator's OnSpan hook reports nanosecond pairs precisely so it
// never has to hold tracer state). Nil-safe.
func (t *Tracer) Emit(parent SpanContext, name string, startUnixNanos, endUnixNanos int64, attrs ...string) {
	if t == nil {
		return
	}
	id := fmt.Sprintf("%s-%d", t.proc, t.seq.Add(1))
	tid := parent.Trace
	if tid == "" && parent.Span == "" {
		tid = "untraced-" + id
	}
	dur := endUnixNanos - startUnixNanos
	if dur < 0 {
		dur = 0
	}
	t.spans.Inc()
	t.write(Record{
		Type:   "span",
		Trace:  tid,
		Span:   id,
		Parent: parent.Span,
		Name:   name,
		Proc:   t.proc,
		Start:  startUnixNanos,
		Dur:    dur,
		Attrs:  attrMap(nil, attrs),
	})
}

// attrMap folds alternating key/value pairs into m (allocating it when
// needed). An odd trailing key is dropped rather than panicking —
// telemetry never takes the process down.
func attrMap(m map[string]string, attrs []string) map[string]string {
	for i := 0; i+1 < len(attrs); i += 2 {
		if m == nil {
			m = make(map[string]string, len(attrs)/2)
		}
		m[attrs[i]] = attrs[i+1]
	}
	return m
}

// A Span is one in-flight operation. Methods are safe for concurrent
// use and no-ops on a nil receiver. A span is emitted once, by End;
// attribute writes after End are dropped.
type Span struct {
	tr *Tracer

	mu     sync.Mutex
	trace  string
	id     string
	parent string
	name   string
	start  time.Time
	attrs  map[string]string
	ended  bool
}

// Context returns the span's position for parenting children or
// rendering the propagation header. Zero on nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanContext{Trace: s.trace, Span: s.id}
}

// TraceID returns the trace the span currently belongs to ("" until a
// JoinTrace or a traced parent provides one). Nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace
}

// JoinTrace adopts a trace ID if the span does not have one yet — an
// inbound header always wins over a locally derived identity, so a
// cross-process trace never forks. Nil-safe.
func (s *Span) JoinTrace(id string) {
	if s == nil || id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trace == "" {
		s.trace = id
	}
}

// SetAttr records one attribute. Nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs = attrMap(s.attrs, []string{k, v})
}

// End emits the span. A span that never joined a trace and has no
// parent becomes its own single-span trace ("untraced-<id>"), so every
// emitted span groups somewhere. End is idempotent. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if s.trace == "" && s.parent == "" {
		s.trace = "untraced-" + s.id
	}
	rec := Record{
		Type:   "span",
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		Proc:   s.tr.proc,
		Start:  s.start.UnixNano(),
		Dur:    int64(since(s.start)),
		Attrs:  s.attrs,
	}
	s.mu.Unlock()
	s.tr.spans.Inc()
	s.tr.write(rec)
}
