// Command localvet is the multichecker for the repository's LOCAL-model
// determinism & purity contract (DESIGN.md, "Model purity & static
// enforcement" and §11). It type-checks every package of the module from
// source (stdlib only — no external tooling), builds the module-wide call
// graph, and runs the internal/analysis suite:
//
//	norawrand     randomness only via internal/rng (Env.Rand)
//	nowallclock   no wall-clock reads outside exempted leaf functions
//	nomapiter     map iteration order must not reach messages or outputs
//	errsentinel   kernel failures matched with errors.Is, never error text
//	phasedisc     Machine receiver/Env.Node shape discipline
//	obsinert      hot paths never consume observability results
//	nondetflow    no transitive path from domain code to a nondeterminism
//	              source; reports carry full call-chain provenance
//	goroutinedisc go statements only at sanctioned pool/reaper sites
//	mutexhold     no blocking operations while holding a mutex
//	ctxflow       context first, never re-rooted, threaded to blocking callees
//
// Usage:
//
//	localvet [-only a,b] [-format text|json|sarif] [package-pattern]
//
// The only supported patterns are "./..." (the whole module, the default)
// and module-relative directories like ./internal/mis. Exit status: 0
// clean, 1 findings, 2 operational error. With -format json or sarif the
// findings are also listed as text on stderr, so one run can both gate and
// write a machine-readable report (make lint writes localvet.sarif).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"locality/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// leafExemptions is the complete table of sanctioned nondeterminism leaks —
// the function-level replacement for the old package/file carve-outs. Each
// entry is machine-verified by nondetflow: the function must exist and
// directly contain a source of the exempted kind, so the table cannot
// outlive the code it sanctions. nowallclock consumes the wallclock rows as
// its AllowFuncs, keeping the intraprocedural leaf check and the
// interprocedural reachability check in exact agreement.
var leafExemptions = []analysis.FuncExemption{
	{Func: "locality/internal/sim.runConcurrent", Kind: "wallclock",
		Reason: "abort grace period for reaping runaway concurrent runs; the wall clock bounds whether an abort returns, never what a run computes"},
	{Func: "locality/internal/sim.runConcurrent", Kind: "goroutine",
		Reason: "the concurrent engine itself: per-node workers, joined at every phase barrier"},
	{Func: "locality/internal/harness.(*sweepState).spawn", Kind: "goroutine",
		Reason: "parallel sweep row computes, at most Config.Workers running, joined by Config.Flush or the sweep's abort"},
	{Func: "locality/internal/store.nowNanos", Kind: "wallclock",
		Reason: "result-store records carry a stored-at stamp for operators; write-only telemetry, never read back into cache decisions"},
	{Func: "locality/internal/obs/trace.now", Kind: "wallclock",
		Reason: "span timing is wall-clock telemetry by design; confined to clock.go's two helpers, never read back into span identity (DESIGN.md §14)"},
	{Func: "locality/internal/obs/trace.since", Kind: "wallclock",
		Reason: "span timing is wall-clock telemetry by design; confined to clock.go's two helpers, never read back into span identity (DESIGN.md §14)"},
}

// wallclockAllowFuncs projects the wallclock rows of leafExemptions for
// nowallclock.
func wallclockAllowFuncs() []string {
	var out []string
	for _, ex := range leafExemptions {
		if ex.Kind == "wallclock" {
			out = append(out, ex.Func)
		}
	}
	return out
}

// contractAnalyzers builds the suite with the repository's sanctioned
// exceptions. These exceptions ARE the contract, so they live here, not in
// per-package config files:
//
//   - leafExemptions (above) holds every function that may touch a
//     nondeterminism source; everything reachable above those leaves is
//     machine-checked clean by nondetflow. internal/harness has no
//     wallclock row: retries there follow each other at once, so
//     nowallclock proves the harness reads no clock at all.
//   - internal/jobs, internal/cluster, internal/load, cmd/localityd and
//     cmd/localload may read the clock: the supervision layer's job
//     deadlines, drain grace periods, request timeouts and load-test
//     latency observations are wall-clock by nature.
//     Experiment results stay deterministic — the clock only bounds
//     *whether* a sweep finishes, never what it computes. (The load
//     engine's *workload* is still seed-deterministic; only its measured
//     latencies are clock reads, confined to internal/load/leaves.go.)
//   - the same supervision tier (plus internal/obs and the analysis
//     framework itself) is outside nondetflow's domain: its clock reads and
//     goroutines are its whole job, and taint crossing its boundary is
//     absorbed rather than relayed into domain reports.
//   - goroutinedisc sanctions exactly the reaped spawn sites: the jobs
//     worker pool, the cluster probers, the harness row computes, the
//     concurrent engine, and the daemon's serve loop. Every
//     allowance is verified to still witness a go statement.
//   - internal/fault machines may observe Env.Node: the fault shim maps
//     itself to a host vertex to look up its entry in the fault plan —
//     instrumentation by design, documented in fault.go.
//   - internal/sim and internal/harness are the obsinert hot paths, and
//     internal/cluster joins them: calls into internal/obs there must be
//     fire-and-forget statements, so telemetry can never influence a run —
//     for the coordinator, so failover decisions never consume their own
//     metrics (DESIGN.md §9–10).
func contractAnalyzers() []*analysis.Analyzer {
	supervision := []string{
		"locality/internal/jobs",
		"locality/internal/cluster",
		"locality/internal/load",
		"locality/cmd/localityd",
		"locality/cmd/localload",
	}
	return []*analysis.Analyzer{
		analysis.NewNoRawRand(),
		analysis.NewNoWallClock(analysis.NoWallClockOptions{
			AllowPackages: supervision,
			AllowFuncs:    wallclockAllowFuncs(),
		}),
		analysis.NewNoMapIter(),
		analysis.NewErrSentinel(),
		analysis.NewPhaseDisc(analysis.PhaseDiscOptions{
			AllowNodePackages: []string{"locality/internal/fault"},
		}),
		analysis.NewObsInert(analysis.ObsInertOptions{
			ObsPackages: []string{
				"locality/internal/obs",
				"locality/internal/obs/trace",
			},
			HotPackages: []string{
				"locality/internal/sim",
				"locality/internal/harness",
				"locality/internal/cluster",
			},
		}),
		analysis.NewNonDetFlow(analysis.NonDetFlowOptions{
			ExemptPackages: []string{
				"locality/internal/jobs",
				"locality/internal/cluster",
				"locality/internal/obs",
				"locality/internal/analysis",
				"locality/internal/load",
				"locality/cmd/localityd",
				"locality/cmd/localload",
				"locality/cmd/localvet",
			},
			Exemptions: leafExemptions,
		}),
		analysis.NewGoroutineDisc(analysis.GoroutineDiscOptions{
			Allow: []analysis.GoAllowance{
				{Package: "locality/internal/jobs",
					Reason: "worker pool and drain reaper; spawns joined by Pool.Close"},
				{Package: "locality/internal/cluster",
					Reason: "shard probers and request fan-out, reaped via WaitGroup in Coordinator.Run"},
				{File: "internal/harness/parallel.go",
					Reason: "parallel sweep row computes, joined by Config.Flush or the sweep's abort"},
				{File: "internal/sim/concurrent.go",
					Reason: "the concurrent engine's per-node workers, joined at every phase barrier"},
				{File: "cmd/localityd/main.go",
					Reason: "HTTP serve loop and signal watcher, reaped on shutdown"},
				{File: "internal/load/leaves.go",
					Reason: "the load engine's only spawn site, joined unconditionally by spawnClients"},
				{File: "cmd/localload/main.go",
					Reason: "spawned-daemon stderr drain (reaped at process exit) and Wait watcher (reaped by select)"},
			},
		}),
		analysis.NewMutexHold(),
		analysis.NewCtxFlow(),
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("localvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	format := fs.String("format", "text", "output format: text, json or sarif")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := contractAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "localvet: unknown format %q (valid: text, json, sarif)\n", *format)
		return 2
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			var unknown, valid []string
			for name := range keep {
				unknown = append(unknown, fmt.Sprintf("%q", name))
			}
			sort.Strings(unknown)
			for _, a := range contractAnalyzers() {
				valid = append(valid, a.Name)
			}
			fmt.Fprintf(stderr, "localvet: unknown analyzer %s (valid: %s)\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
		analyzers = filtered
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "localvet: %v\n", err)
		return 2
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "localvet: %v\n", err)
		return 2
	}
	const modulePath = "locality"

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := resolvePatterns(patterns, modulePath, moduleDir, cwd)
	if err != nil {
		fmt.Fprintf(stderr, "localvet: %v\n", err)
		return 2
	}

	// Load every target first, then build the call graph over everything the
	// loader saw (targets plus their module-local dependencies), so the
	// interprocedural analyzers can follow cross-package chains even on a
	// partial -only/-pattern run.
	loader := analysis.NewLoader(modulePath, moduleDir)
	loader.IncludeTests = true
	failed := false
	var pkgs []*analysis.Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "localvet: %v\n", err)
			failed = true
			continue
		}
		pkgs = append(pkgs, p)
	}
	prog := analysis.BuildProgram(loader.Loaded())

	var findings []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			name := a.Name
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Prog:      prog,
				Report: func(d analysis.Diagnostic) {
					pos := p.Fset.Position(d.Pos)
					file := pos.Filename
					if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
						file = filepath.ToSlash(rel)
					}
					findings = append(findings, Finding{
						Analyzer: name,
						File:     file,
						Line:     pos.Line,
						Column:   pos.Column,
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "localvet: %s on %s: %v\n", a.Name, p.Path, err)
				failed = true
			}
		}
	}
	sortFindings(findings)

	var werr error
	switch *format {
	case "text":
		werr = writeText(stdout, findings)
	case "json":
		werr = writeJSON(stdout, findings)
	case "sarif":
		werr = writeSARIF(stdout, analyzers, findings)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "localvet: %v\n", werr)
		return 2
	}
	switch {
	case failed:
		return 2
	case len(findings) > 0:
		if *format != "text" {
			writeText(stderr, findings)
		}
		fmt.Fprintf(stderr, "localvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// resolvePatterns expands package patterns to module import paths.
func resolvePatterns(patterns []string, modulePath, moduleDir, cwd string) ([]string, error) {
	var paths []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := analysis.ModulePackages(modulePath, moduleDir)
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
			}
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(cwd, dir)
			}
			rel, err := filepath.Rel(moduleDir, dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("pattern %q is outside the module", pat)
			}
			p := modulePath
			if rel != "." {
				p = modulePath + "/" + filepath.ToSlash(rel)
			}
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	return paths, nil
}
