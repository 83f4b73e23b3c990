package main

import (
	"bytes"
	"testing"
)

// TestModuleSelfClean runs the full localvet suite — all analyzers, whole
// module — inside go test, so `go test ./...` fails the moment a contract
// violation or a stale exemption lands, without waiting for the dedicated
// lint step. This is the acceptance gate for the determinism contract: the
// module must be clean.
func TestModuleSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is a few seconds; skipped with -short")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("localvet over the module = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}
