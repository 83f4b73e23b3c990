package trace

// This file is the telemetry layer's single sanctioned wall-clock
// consumer: the two helpers below are the only clock reads in
// internal/obs and its subpackages, exempted function-by-function in
// cmd/localvet's leafExemptions table (machine-verified by nondetflow).
// Span timestamps and durations are wall-clock telemetry by design and
// are never consulted by model, harness, or supervision decisions — the
// inertness contract of DESIGN.md §9 extends to §14's tracing argument.

import "time"

// now reads the wall clock.
func now() time.Time { return time.Now() }

// since measures elapsed wall-clock time from t.
func since(t time.Time) time.Duration { return time.Since(t) }
