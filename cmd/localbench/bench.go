package main

// The -bench-json mode: the perf trajectory of the experiment suite, one
// JSON artifact per invocation. Each experiment is timed at quick scale (the
// same scale the tests run, so CI numbers are comparable across machines of
// one class), and the artifact records ns/op, allocs/op and rows/s per
// experiment. When the output directory already holds an earlier artifact,
// the run compares against the lexically latest one — the stamp format makes
// lexical order chronological — and fails on a >-threshold ns/op regression,
// which is what lets CI catch a perf cliff in review instead of after merge.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"locality/internal/artifact"
	"locality/internal/harness"
)

// benchExperiments is the fixed measurement order (never a map iteration:
// the artifact must be byte-stable given identical measurements).
var benchExperiments = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
	"E12", "E13", "A1", "A2", "A3",
}

// benchSchema versions the artifact layout.
const benchSchema = "locality-bench/v1"

// benchStampFormat makes lexical order chronological.
const benchStampFormat = "20060102T150405Z"

type benchEntry struct {
	Experiment  string  `json:"experiment"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Rows        int     `json:"rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	Iters       int     `json:"iters"`
}

// benchFile is the artifact header plus entries. The header records the
// measurement environment's provenance — Go version, GOOS/GOARCH,
// GOMAXPROCS, worker count — so a baseline comparison that crosses machines
// or toolchains is visible in the artifacts it compared.
type benchFile struct {
	Schema     string       `json:"schema"`
	Stamp      string       `json:"stamp"`
	Go         string       `json:"go"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Seed       uint64       `json:"seed"`
	Workers    int          `json:"workers"`
	Entries    []benchEntry `json:"entries"`
}

// newBenchFile stamps an artifact header with the measurement environment's
// provenance.
func newBenchFile(seed uint64, workers int) benchFile {
	return benchFile{
		Schema:     benchSchema,
		Stamp:      time.Now().UTC().Format(benchStampFormat),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      true,
		Seed:       seed,
		Workers:    workers,
	}
}

// benchOne measures one experiment at quick scale: a warmup run, then timed
// iterations until minTime (or minIters) is reached.
func benchOne(id string, cfg harness.Config, minTime time.Duration, minIters int) (benchEntry, error) {
	driver, ok := harness.ByID(id)
	if !ok {
		driver, ok = harness.ByIDSupplementary(id)
	}
	if !ok {
		return benchEntry{}, fmt.Errorf("unknown experiment %q", id)
	}
	tbl := driver(cfg) // warmup: faults surface here, steady-state after
	rows := len(tbl.Rows)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	start := time.Now()
	iters := 0
	for elapsed := time.Duration(0); elapsed < minTime || iters < minIters; {
		driver(cfg)
		iters++
		elapsed = time.Since(start)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)

	e := benchEntry{
		Experiment:  id,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(ms.Mallocs-allocs0) / float64(iters),
		Rows:        rows,
		Iters:       iters,
	}
	if elapsed > 0 {
		e.RowsPerSec = float64(rows*iters) / elapsed.Seconds()
	}
	return e, nil
}

// latestBaseline returns the lexically latest usable BENCH_*.json in dir
// (zero-length debris skipped — see internal/artifact), or "" when none
// exists.
func latestBaseline(dir string) (string, error) {
	return artifact.Latest(dir, "BENCH")
}

// regression describes one experiment exceeding the ns/op threshold.
type regression struct {
	experiment    string
	baseline, now float64
	pctChange     float64
}

// compareBaseline flags entries whose ns/op regressed by more than pct
// percent against the baseline. Entries absent from the baseline, and
// baseline entries faster than minNs (too noisy to gate on), are skipped.
func compareBaseline(baseline, current []benchEntry, pct, minNs float64) []regression {
	base := make(map[string]benchEntry, len(baseline))
	for _, e := range baseline {
		base[e.Experiment] = e
	}
	var regs []regression
	for _, e := range current {
		b, ok := base[e.Experiment]
		if !ok || b.NsPerOp < minNs {
			continue
		}
		change := (e.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		if change > pct {
			regs = append(regs, regression{e.Experiment, b.NsPerOp, e.NsPerOp, change})
		}
	}
	return regs
}

// runBenchJSON is the -bench-json entry point. It writes
// dir/BENCH_<stamp>.json and returns the process exit code: 0 on success, 1
// when a baseline exists and any experiment regressed past regressPct
// (<= 0 disables the gate).
func runBenchJSON(dir string, seed uint64, workers int, regressPct float64) int {
	cfg := harness.Config{Quick: true, Seed: seed, Workers: workers}
	out := newBenchFile(seed, workers)
	for _, id := range benchExperiments {
		e, err := benchOne(id, cfg, 200*time.Millisecond, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "localbench: bench %s: %v\n", id, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "bench %-4s %12.0f ns/op %12.0f allocs/op %10.0f rows/s (%d iters)\n",
			e.Experiment, e.NsPerOp, e.AllocsPerOp, e.RowsPerSec, e.Iters)
		out.Entries = append(out.Entries, e)
	}

	baselinePath, err := latestBaseline(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "localbench: scanning for baseline: %v\n", err)
		return 2
	}

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "localbench: encoding: %v\n", err)
		return 2
	}
	path := filepath.Join(dir, "BENCH_"+out.Stamp+".json")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "localbench: writing %s: %v\n", path, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "localbench: wrote %s\n", path)

	if baselinePath == "" || regressPct <= 0 {
		return 0
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "localbench: reading baseline %s: %v\n", baselinePath, err)
		return 2
	}
	var baseline benchFile
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "localbench: parsing baseline %s: %v\n", baselinePath, err)
		return 2
	}
	// Gate only on experiments slow enough (>= 1ms) for timing noise to
	// stay below the threshold.
	regs := compareBaseline(baseline.Entries, out.Entries, regressPct, 1e6)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "localbench: no >%g%% ns/op regression vs %s\n", regressPct, baselinePath)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "localbench: REGRESSION %s: %.0f -> %.0f ns/op (+%.1f%% > %g%%) vs %s\n",
			r.experiment, r.baseline, r.now, r.pctChange, regressPct, baselinePath)
	}
	return 1
}
