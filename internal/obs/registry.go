// Package obs is the observability layer's metrics half: a stdlib-only
// registry (counters, gauges, fixed-bucket histograms) with Prometheus
// text-format exposition. Events — spans, and the per-batch simulator
// round counts fed by the harness hook points — live in the trace
// subpackage, the repository's one telemetry event stream.
//
// The package is designed around one hard requirement, the observability
// contract of DESIGN.md §9: telemetry must be provably inert. Nothing in
// this package is ever consulted by model or harness code to make a
// decision — hot paths call obs only through fire-and-forget hooks (a rule
// the localvet obsinert analyzer enforces statically), every metric type is
// nil-receiver safe so "telemetry off" is a nil pointer and zero work, and
// rendered tables and checkpoints are byte-identical with telemetry on or
// off (differentially test-asserted).
//
// The package reads no clock: histograms observe durations their callers
// measured. The layer's only sanctioned clock file is trace/clock.go (a
// localvet nowallclock carve-out): timing lives in spans and /metrics,
// never in results.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; construct with
// NewRegistry. A nil *Registry is valid everywhere and yields nil metrics
// whose methods are no-ops — the idiom for "telemetry disabled".
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: its metadata and its label-distinguished
// series.
type family struct {
	name    string
	help    string
	kind    string // "counter", "gauge", "histogram"
	buckets []float64
	series  map[string]any // rendered label key -> *Counter/*Gauge/*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter for name with the given label pairs
// (key, value, key, value, ...), creating it on first use. Repeated calls
// with the same name and labels return the same counter. Registering one
// name with conflicting kinds or help strings panics: metric identity is a
// programming contract, not runtime input. On a nil registry it returns
// nil, which is a valid no-op counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.series(name, help, "counter", nil, labels,
		func(*family) any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name and labels, creating it on first use
// (same identity rules as Counter). Nil-registry safe.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.series(name, help, "gauge", nil, labels,
		func(*family) any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for name and labels,
// creating it on first use. buckets are upper bounds in increasing order;
// a +Inf bucket is implicit. All series of one family share the family's
// first-registered buckets. Nil-registry safe.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.series(name, help, "histogram", buckets, labels,
		func(f *family) any { return newHistogram(f.buckets) }).(*Histogram)
}

// series resolves (creating if needed) the family AND the labeled series
// in one critical section. Both maps live under the registry mutex —
// resolving the family under the lock but touching f.series outside it
// would race two first-use callers on the same route (and did, once the
// load rig sent concurrent traffic at one handler).
func (r *Registry) series(name, help, kind string, buckets []float64, labels []string, mk func(*family) any) any {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q", name, labels))
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			buckets: append([]float64(nil), buckets...), series: make(map[string]any)}
		r.fams[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %s registered with two help strings", name))
		}
	}
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk(f)
	f.series[key] = s
	return s
}

// labelKey renders the label pairs as the exposition's {k="v",...} block;
// empty for an unlabeled series. Pair order is the caller's, so call sites
// must use one canonical order per family (they do: each family is created
// by one wiring site).
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// A Counter is a monotonically increasing int64. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (non-positive deltas are ignored: counters only rise).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an int64 that can go up and down. Nil-receiver safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed buckets (upper bounds, +Inf
// implicit) and tracks their sum. Nil-receiver safe; concurrent Observe
// calls are lock-free (the exposition snapshot is eventually consistent,
// as is conventional for Prometheus clients).
type Histogram struct {
	upper  []float64
	counts []atomic.Int64 // len(upper)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// exemplar holds the most recent trace ID observed alongside a
	// sample (ObserveExemplar) — rendered as an EXEMPLAR comment line so
	// a latency series links back to a concrete trace in cmd/localtrace.
	exemplar atomic.Pointer[string]
}

func newHistogram(upper []float64) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not increasing: %v", upper))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one sample and attaches traceID as the
// series' exemplar (the latest one wins; an empty ID records the sample
// only). Exemplars are exposition metadata, never metric values: the
// numeric series is identical to plain Observe calls.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.exemplar.Store(&traceID)
	}
}

// Exemplar returns the series' most recent exemplar trace ID ("" when
// none was ever attached).
func (h *Histogram) Exemplar() string {
	if h == nil {
		return ""
	}
	if p := h.exemplar.Load(); p != nil {
		return *p
	}
	return ""
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefTimeBuckets are the default latency buckets, in seconds.
var DefTimeBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// WriteProm renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series by label key, so the
// output is deterministic given identical metric values — the property the
// golden tests pin. A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		r.mu.Unlock()
		sort.Strings(keys)
		for _, k := range keys {
			r.mu.Lock()
			s := f.series[k]
			r.mu.Unlock()
			if err := writeSeries(w, f, k, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series of a family.
func writeSeries(w io.Writer, f *family, key string, s any) error {
	switch m := s.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
		return err
	case *Histogram:
		cum := int64(0)
		for i := range m.counts {
			cum += m.counts[i].Load()
			le := "+Inf"
			if i < len(m.upper) {
				le = formatFloat(m.upper[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, mergeLabels(key, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, key, formatFloat(m.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, key, m.Count()); err != nil {
			return err
		}
		// Exemplars ride a comment line: version 0.0.4 has no exemplar
		// syntax, and comments are ignored by every conforming parser,
		// so the trace link costs nothing in compatibility.
		if ex := m.Exemplar(); ex != "" {
			_, err := fmt.Fprintf(w, "# EXEMPLAR %s%s trace=\"%s\"\n", f.name, key, escapeLabel(ex))
			return err
		}
		return nil
	}
	return fmt.Errorf("obs: unknown series type %T", s)
}

// mergeLabels appends one extra rendered label to a label key.
func mergeLabels(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
