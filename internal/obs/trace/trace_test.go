package trace

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locality/internal/obs"
)

func openTest(t *testing.T, proc string) (*Tracer, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "artifacts") // Open creates it
	tr, err := Open(Options{Dir: dir, Proc: proc})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return tr, filepath.Join(dir, proc+".trace.jsonl")
}

func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open artifact: %v", err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(SpanContext{}, "x")
	if sp != nil {
		t.Fatalf("nil tracer minted a span")
	}
	sp.SetAttr("k", "v")
	sp.JoinTrace("abc")
	sp.End()
	if got := sp.Context(); got != (SpanContext{}) {
		t.Fatalf("nil span context = %+v", got)
	}
	if sp.TraceID() != "" {
		t.Fatalf("nil span has a trace ID")
	}
	tr.Emit(SpanContext{}, "y", 1, 2)
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestSpanEmissionAndIdentity(t *testing.T) {
	tr, path := openTest(t, "w1")
	root := tr.Start(SpanContext{Trace: "deadbeefdeadbeef"}, "http.submit", "route", "submit")
	if got := root.Context().Span; got != "w1-1" {
		t.Fatalf("span ID = %q, want w1-1", got)
	}
	child := tr.Start(root.Context(), "pool.admit")
	child.SetAttr("outcome", "enqueued")
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs := readRecords(t, path)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want meta+2 spans", len(recs))
	}
	if recs[0].Type != "meta" || recs[0].Schema != Schema {
		t.Fatalf("meta record = %+v", recs[0])
	}
	// child ended first, so it is record 1.
	if recs[1].Name != "pool.admit" || recs[1].Parent != "w1-1" || recs[1].Trace != "deadbeefdeadbeef" {
		t.Fatalf("child record = %+v", recs[1])
	}
	if recs[1].Attrs["outcome"] != "enqueued" {
		t.Fatalf("child attrs = %v", recs[1].Attrs)
	}
	if recs[2].Name != "http.submit" || recs[2].Parent != "" || recs[2].Proc != "w1" {
		t.Fatalf("root record = %+v", recs[2])
	}
	if recs[2].Start <= 0 || recs[2].Dur < 0 {
		t.Fatalf("root timing = start %d dur %d", recs[2].Start, recs[2].Dur)
	}
}

func TestJoinTraceInboundWins(t *testing.T) {
	tr, path := openTest(t, "p")
	sp := tr.Start(SpanContext{Trace: "inbound0000000000"}, "http.get")
	sp.JoinTrace("local11111111111")
	sp.End()
	late := tr.Start(SpanContext{}, "http.get")
	late.JoinTrace("joined2222222222")
	late.End()
	orphanless := tr.Start(SpanContext{}, "http.healthz")
	orphanless.End()
	tr.Close()

	recs := readRecords(t, path)
	if recs[1].Trace != "inbound0000000000" {
		t.Fatalf("inbound trace overwritten: %q", recs[1].Trace)
	}
	if recs[2].Trace != "joined2222222222" {
		t.Fatalf("JoinTrace on empty did not stick: %q", recs[2].Trace)
	}
	if !strings.HasPrefix(recs[3].Trace, "untraced-") {
		t.Fatalf("parentless traceless span got %q, want untraced-*", recs[3].Trace)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: "abc123", Span: "w1-7"}
	got, ok := Parse(sc.String())
	if !ok || got != sc {
		t.Fatalf("round trip = %+v ok=%v", got, ok)
	}
	for _, bad := range []string{"", "noslash", "trailing/"} {
		if _, ok := Parse(bad); ok {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
	if (SpanContext{}).String() != "" {
		t.Fatalf("zero context renders non-empty")
	}
}

func TestIDFromIdentity(t *testing.T) {
	ikey := strings.Repeat("ab", 32)
	if got := IDFromIdentity(ikey); got != strings.Repeat("ab", 8) {
		t.Fatalf("IDFromIdentity = %q", got)
	}
	if got := IDFromIdentity("short"); got != "short" {
		t.Fatalf("short identity = %q", got)
	}
}

func TestEmitAndSeededIDs(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, Proc: "coord"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tr.Emit(SpanContext{Trace: "t0", Span: "coord-0"}, "shard.dispatch", 1000, 3000, "shard", "a")
	tr.Close()
	recs := readRecords(t, filepath.Join(dir, "coord.trace.jsonl"))
	sp := recs[1]
	// The span-ID counter starts at zero, so the first span is <proc>-1.
	if sp.Span != "coord-1" {
		t.Fatalf("first span ID = %q, want coord-1", sp.Span)
	}
	if sp.Start != 1000 || sp.Dur != 2000 || sp.Attrs["shard"] != "a" {
		t.Fatalf("emit record = %+v", sp)
	}
}

func TestSpanCounterMetric(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, Proc: "m", Metrics: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tr.Start(SpanContext{}, "a").End()
	tr.Emit(SpanContext{}, "b", 1, 2)
	tr.Close()
	if got := reg.Counter("locality_trace_spans_total", "Trace spans emitted to the artifact.").Value(); got != 2 {
		t.Fatalf("spans counter = %d, want 2", got)
	}
}

func TestOpenAppendsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		tr, err := Open(Options{Dir: dir, Proc: "r"})
		if err != nil {
			t.Fatalf("Open #%d: %v", i, err)
		}
		tr.Start(SpanContext{}, "x").End()
		tr.Close()
	}
	recs := readRecords(t, filepath.Join(dir, "r.trace.jsonl"))
	if len(recs) != 4 { // meta, span, meta, span
		t.Fatalf("restarted artifact has %d records, want 4", len(recs))
	}
}
