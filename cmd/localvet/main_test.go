package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunClean runs the gate on a package that honors the contract.
func TestRunClean(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"../../internal/rng"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestRunFindings points the gate at the norawrand test fixture, which
// deliberately imports math/rand, and expects exit code 1 with a
// file:line:col diagnostic.
func TestRunFindings(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "norawrand", "../../internal/analysis/testdata/src/norawrand"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "norawrand: import of \"math/rand\"") {
		t.Fatalf("expected a norawrand diagnostic, got:\n%s", stdout.String())
	}
}

// TestRunList checks the -list inventory includes every analyzer.
func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list exited %d", code)
	}
	for _, name := range []string{
		"norawrand", "nowallclock", "nomapiter", "errsentinel", "phasedisc",
		"obsinert", "nondetflow", "goroutinedisc", "mutexhold", "ctxflow",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

// TestRunUnknownAnalyzer checks the usage-error path: exit 2, every unknown
// name reported, and the valid names listed so the caller need not run
// -list separately.
func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "nope,alsonope,mutexhold"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run exited %d for unknown analyzers, want 2", code)
	}
	for _, want := range []string{`"nope"`, `"alsonope"`, "valid:", "nondetflow", "ctxflow"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("unknown-analyzer error missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestRunBadFormat checks -format validation.
func TestRunBadFormat(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run exited %d for unknown format, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown format") {
		t.Fatalf("expected a format error, got:\n%s", stderr.String())
	}
}

// TestRunJSON checks the machine-readable output: a JSON array of findings
// with analyzer, module-relative file, position and message.
func TestRunJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "norawrand", "-format", "json",
		"../../internal/analysis/testdata/src/norawrand"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var fs []Finding
	if err := json.Unmarshal([]byte(stdout.String()), &fs); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, stdout.String())
	}
	if len(fs) == 0 {
		t.Fatal("expected findings in JSON output")
	}
	f := fs[0]
	if f.Analyzer != "norawrand" || f.Line == 0 ||
		!strings.HasPrefix(f.File, "internal/analysis/testdata/src/norawrand/") {
		t.Fatalf("unexpected finding shape: %+v", f)
	}
}

// TestRunSARIF checks the SARIF envelope: version 2.1.0, a rule per
// configured analyzer, one result per finding.
func TestRunSARIF(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "norawrand", "-format", "sarif",
		"../../internal/analysis/testdata/src/norawrand"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout.String()), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "localvet" || len(run0.Tool.Driver.Rules) != 1 {
		t.Fatalf("unexpected SARIF tool: %+v", run0.Tool.Driver)
	}
	if len(run0.Results) == 0 || run0.Results[0].RuleID != "norawrand" {
		t.Fatalf("unexpected SARIF results: %+v", run0.Results)
	}
	// The same run lists its findings as text on stderr, so a gate that
	// writes SARIF still shows what failed.
	if !strings.Contains(stderr.String(), ": norawrand: ") {
		t.Errorf("SARIF run did not list its findings on stderr:\n%s", stderr.String())
	}
}
