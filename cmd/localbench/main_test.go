package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs/trace"
)

// TestBenchOneMeasures smokes the per-experiment measurement on a cheap
// experiment: the entry must report positive time, the true row count, and
// at least the minimum iteration count.
func TestBenchOneMeasures(t *testing.T) {
	cfg := harness.Config{Quick: true, Seed: 7}
	e, err := benchOne("E4", cfg, time.Millisecond, 2)
	if err != nil {
		t.Fatalf("benchOne: %v", err)
	}
	tbl, _ := harness.ByID("E4")
	wantRows := len(tbl(cfg).Rows)
	if e.Experiment != "E4" || e.Rows != wantRows || e.Iters < 2 {
		t.Errorf("entry %+v: want experiment E4, rows %d, iters >= 2", e, wantRows)
	}
	if e.NsPerOp <= 0 || e.RowsPerSec <= 0 {
		t.Errorf("entry %+v: non-positive rates", e)
	}
}

func TestBenchOneUnknownExperiment(t *testing.T) {
	if _, err := benchOne("E99", harness.Config{Quick: true}, time.Millisecond, 1); err == nil {
		t.Fatal("benchOne accepted an unknown experiment")
	}
}

// TestBenchExperimentsResolve pins the measurement list to the registries:
// every ID must resolve, so the artifact always covers the full suite.
func TestBenchExperimentsResolve(t *testing.T) {
	for _, id := range benchExperiments {
		if _, ok := harness.ByID(id); ok {
			continue
		}
		if _, ok := harness.ByIDSupplementary(id); !ok {
			t.Errorf("benchExperiments lists %s, which no registry resolves", id)
		}
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	if got, err := latestBaseline(dir); err != nil || got != "" {
		t.Fatalf("empty dir: got (%q, %v), want no baseline", got, err)
	}
	for _, name := range []string{"BENCH_20260101T000000Z.json", "BENCH_20250601T120000Z.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_20260101T000000Z.json"); got != want {
		t.Errorf("latestBaseline = %q, want %q (lexically latest stamp)", got, want)
	}
}

func TestCompareBaseline(t *testing.T) {
	baseline := []benchEntry{
		{Experiment: "E1", NsPerOp: 10e6},
		{Experiment: "E2", NsPerOp: 10e6},
		{Experiment: "E3", NsPerOp: 1e3}, // below the 1ms noise floor
	}
	current := []benchEntry{
		{Experiment: "E1", NsPerOp: 14e6}, // +40%: regression
		{Experiment: "E2", NsPerOp: 11e6}, // +10%: within threshold
		{Experiment: "E3", NsPerOp: 1e6},  // huge relative jump, but noise-floored
		{Experiment: "E4", NsPerOp: 99e6}, // no baseline entry
	}
	regs := compareBaseline(baseline, current, 25, 1e6)
	if len(regs) != 1 || regs[0].experiment != "E1" {
		t.Fatalf("regressions %+v, want exactly E1", regs)
	}
	if regs[0].pctChange < 39 || regs[0].pctChange > 41 {
		t.Errorf("E1 pct change %.1f, want ~40", regs[0].pctChange)
	}
}

// TestBenchFileRoundTrip pins the artifact schema through JSON.
func TestBenchFileRoundTrip(t *testing.T) {
	in := benchFile{
		Schema: benchSchema, Stamp: "20260806T000000Z", Go: "go1.24",
		Quick: true, Seed: 7, Workers: 4,
		Entries: []benchEntry{{Experiment: "E4", NsPerOp: 1.5e6, AllocsPerOp: 12, Rows: 4, RowsPerSec: 2666, Iters: 3}},
	}
	enc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out benchFile
	if err := json.Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != in.Schema || len(out.Entries) != 1 || out.Entries[0] != in.Entries[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// TestBenchFileProvenance: the artifact header records the measurement
// environment, so cross-machine or cross-toolchain baseline comparisons are
// visible in the artifacts themselves.
func TestBenchFileProvenance(t *testing.T) {
	f := newBenchFile(7, 4)
	if f.Schema != benchSchema || !f.Quick || f.Seed != 7 || f.Workers != 4 {
		t.Errorf("header identity = %+v", f)
	}
	if f.Go != runtime.Version() || f.GOOS != runtime.GOOS || f.GOARCH != runtime.GOARCH {
		t.Errorf("provenance = %s/%s/%s, want %s/%s/%s",
			f.Go, f.GOOS, f.GOARCH, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	}
	if f.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", f.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if _, err := time.Parse(benchStampFormat, f.Stamp); err != nil {
		t.Errorf("stamp %q does not parse as %s: %v", f.Stamp, benchStampFormat, err)
	}
	enc, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"goos"`, `"goarch"`, `"gomaxprocs"`} {
		if !strings.Contains(string(enc), key) {
			t.Errorf("artifact JSON missing %s: %s", key, enc)
		}
	}
}

// TestTraceArtifact drives an experiment the way -trace-dir does and
// checks the table stays byte-identical to an untraced run while the
// artifact assembles into one orphan-free tree: the run's root span under
// the spec's identity-derived trace ID, with a batch.commit child per
// committed batch carrying the simulator's round counts.
func TestTraceArtifact(t *testing.T) {
	driver, ok := harness.ByID("E2")
	if !ok {
		t.Fatal("E2 missing from registry")
	}
	base := harness.Config{Quick: true, Seed: 7}
	var want bytes.Buffer
	driver(base).Render(&want)

	dir := t.TempDir()
	cfg := base
	tr, sweepObs, err := openTrace(dir, "E2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = sweepObs
	var got bytes.Buffer
	driver(cfg).Render(&got)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("tracing changed the rendered table")
	}

	res, err := trace.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	forest := trace.Assemble(res.Spans)
	if err := forest.Err(); err != nil {
		t.Fatalf("trace artifact incomplete: %v", err)
	}
	id := trace.IDFromIdentity(jobs.Spec{Experiment: "E2", Quick: true, Seed: 7}.IdentityKey())
	if len(forest.Traces) != 1 || forest.Traces[0].ID != id || len(forest.Traces[0].Roots) != 1 {
		t.Fatalf("want one trace %s with one root, got %+v", id, forest.Traces)
	}
	root := forest.Traces[0].Roots[0]
	if root.Name != "localbench.run" || root.Attrs["experiment"] != "E2" || root.Attrs["seed"] != "7" {
		t.Errorf("root span %s %v", root.Name, root.Attrs)
	}
	var rounds int
	for _, c := range root.Children {
		n, err := strconv.Atoi(c.Attrs["rounds"])
		if c.Name != "batch.commit" || err != nil {
			t.Fatalf("root child %s with rounds %q", c.Name, c.Attrs["rounds"])
		}
		rounds += n
	}
	if len(root.Children) == 0 || rounds == 0 {
		t.Errorf("%d batch.commit spans covering %d rounds", len(root.Children), rounds)
	}
}
