// Command perfbench is the repository's benchmark. One invocation runs one
// workload from a workload seed, checks every output it produced, and
// prints as its last stdout line a JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1):
//
//	go run . -workload sweep-plans|sweep-views|serve-cold-warm -seed N -seconds S -trace 0|1
//
// run.sh builds it and the localityd binary it drives from source and
// passes -daemon; README.md records why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload fills in: operation counts, the failures found by
// the output checks, and the metrics of the requested kind.
type run struct {
	attempted int
	failures  []string
	metrics   map[string]metric
}

func (r *run) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; the run still completes so every failure
// is listed.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// info prints a line of detail that is reported but not gated.
func info(format string, args ...any) {
	fmt.Printf("info: "+format+"\n", args...)
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
}

func main() {
	var o options
	var traceFlag int
	probe := flag.Bool("probe", false, "exit at once: timed by the sweep workloads as process set-up")
	flag.StringVar(&o.workload, "workload", "", "sweep-plans, sweep-views or serve-cold-warm")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "run length the workload is sized to")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.daemon, "daemon", "", "localityd binary (serve-cold-warm)")
	flag.Parse()
	if *probe {
		return
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}

	var r run
	var err error
	switch o.workload {
	case "sweep-plans", "sweep-views":
		err = runSweep(o, &r)
	case "serve-cold-warm":
		err = runServe(o, &r)
	default:
		fatalf("unknown workload %q", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	failed := min(len(r.failures), r.attempted)
	if !o.trace {
		r.set("ok_ratio", float64(r.attempted-failed)/float64(max(r.attempted, 1)), "ratio")
	}
	out, err := json.Marshal(result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupSamples is how many times a workload sets up per run; set-up time
// is their median.
const setupSamples = 15

// probeSetup spawns this binary, which exits once it has initialised every
// package it links — the set-up a sweep process pays before its first
// timed operation — and returns the median CPU time one spawn costs, in
// seconds. Set-up is timed in CPU time, not wall time, for the reason
// sweep times are (see runSweep): a spawn lasts milliseconds, and a
// hypervisor steal phase doubles its wall time.
func probeSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating own binary: %w", err)
	}
	samples := make([]float64, setupSamples)
	for i := range samples {
		cmd := exec.Command(self, "-probe")
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		samples[i] = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	}
	return median(samples), nil
}
