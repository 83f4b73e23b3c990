// Command localbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per quantitative claim of the paper (see DESIGN.md's experiment
// index E1–E11).
//
// Usage:
//
//	localbench [-experiment=E1|...|E13|all] [-quick] [-seed N] [-workers N] [-format text|csv|markdown] [-trace-dir DIR]
//	localbench -bench-json [-bench-dir DIR] [-bench-regress PCT] [-seed N] [-workers N]
//
// Full mode (the default) matches the EXPERIMENTS.md record and takes a few
// minutes; -quick shrinks every sweep to run in seconds. -workers computes
// sweep rows in parallel without changing a byte of output. -trace-dir
// writes the run's span trace (localbench.trace.jsonl, read by
// cmd/localtrace): one batch.commit span per committed row batch, with its
// wall time and simulator round, message and byte counts — the tables
// themselves are byte-identical with or without it. -bench-json times every
// experiment at quick scale, writes BENCH_<stamp>.json, and — when an
// earlier artifact exists in -bench-dir — exits nonzero on a
// >-bench-regress% ns/op regression (see bench.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "experiment id (E1..E13, A1..A3) or 'all'")
		quick      = flag.Bool("quick", false, "shrink sweeps to run in seconds")
		seed       = flag.Uint64("seed", 2016, "random seed for all experiments")
		workers    = flag.Int("workers", 1, "parallel row workers per sweep (output is identical at any count)")
		format     = flag.String("format", "text", "output format: text, csv or markdown")
		traceDir   = flag.String("trace-dir", "", "directory for the JSONL span trace artifact (empty = tracing disabled)")

		benchJSON    = flag.Bool("bench-json", false, "benchmark every experiment at quick scale and write BENCH_<stamp>.json")
		benchDir     = flag.String("bench-dir", ".", "directory for BENCH_*.json artifacts (and where the baseline is looked up)")
		benchRegress = flag.Float64("bench-regress", 25, "fail on ns/op regressions above this percentage vs the latest baseline (0 disables)")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("localbench %s %s %s/%s\n", obs.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return 0
	}

	if *benchJSON {
		return runBenchJSON(*benchDir, *seed, *workers, *benchRegress)
	}

	cfg := harness.Config{Quick: *quick, Seed: *seed, Workers: *workers}
	if *traceDir != "" {
		tr, sweepObs, err := openTrace(*traceDir, *experiment, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "localbench: %v\n", err)
			return 2
		}
		cfg.Obs = sweepObs
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "localbench: writing trace: %v\n", err)
			}
		}()
	}
	var tables []*harness.Table
	switch {
	case strings.EqualFold(*experiment, "all"):
		tables = append(harness.All(cfg), harness.AllSupplementary(cfg)...)
	default:
		driver, ok := harness.ByID(*experiment)
		if !ok {
			driver, ok = harness.ByIDSupplementary(strings.ToUpper(*experiment))
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "localbench: unknown experiment %q (want E1..E13, A1..A3 or all)\n", *experiment)
			return 2
		}
		tables = []*harness.Table{driver(cfg)}
	}

	for _, t := range tables {
		switch *format {
		case "text":
			t.Render(os.Stdout)
		case "csv":
			t.CSV(os.Stdout)
		case "markdown":
			t.Markdown(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "localbench: unknown format %q\n", *format)
			return 2
		}
	}
	return 0
}

// openTrace opens the run's tracer under dir and returns it with the sweep
// observer to attach. The run's root span carries what identifies the run
// and joins the trace ID a localityd job of the same spec would get. It is
// ended — written to disk — before any batch.commit span references it, so
// a killed run leaves no orphans (DESIGN.md §14).
func openTrace(dir, experiment string, cfg harness.Config) (*trace.Tracer, harness.Observer, error) {
	tr, err := trace.Open(trace.Options{Dir: dir, Proc: "localbench"})
	if err != nil {
		return nil, nil, err
	}
	root := tr.Start(trace.SpanContext{}, "localbench.run",
		"experiment", experiment,
		"seed", strconv.FormatUint(cfg.Seed, 10),
		"quick", strconv.FormatBool(cfg.Quick),
		"workers", strconv.Itoa(cfg.Workers),
	)
	spec := jobs.Spec{Experiment: experiment, Quick: cfg.Quick, Seed: cfg.Seed}
	root.JoinTrace(trace.IDFromIdentity(spec.IdentityKey()))
	root.End()
	return tr, trace.NewObserver(tr, root.Context()), nil
}
