package jobs

import (
	"testing"

	"locality/internal/obs/trace"
)

// TestSweepObserverNilWithoutTracer: an untraced pool hands the harness a
// nil Observer interface — not a typed-nil pointer, which would arm the
// simulator's round hook on every run — and a traced pool a live one.
func TestSweepObserverNilWithoutTracer(t *testing.T) {
	p := New(Options{Workers: 1})
	defer closePoolWB(t, p)
	if o := p.sweepObserver(&job{}); o != nil {
		t.Errorf("untraced pool attaches %#v, want a nil interface", o)
	}

	tr, err := trace.Open(trace.Options{Dir: t.TempDir(), Proc: "wb"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	traced := New(Options{Workers: 1, Tracer: tr})
	defer closePoolWB(t, traced)
	if traced.sweepObserver(&job{}) == nil {
		t.Error("traced pool attaches no sweep observer")
	}
}
