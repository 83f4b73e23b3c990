package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"locality/internal/harness"
)

// defaultSeed is localbench's default seed; the tables a sweep renders at
// this seed are pinned in pins.txt.
const defaultSeed = 2016

// sweepSpec is one sweep workload: which experiments a pass computes, and
// how long one pass takes, so that -seconds sets the number of passes.
type sweepSpec struct {
	ids   []string
	passS float64
}

// sweeps holds the sweep workloads. Each pass runs at the next seed; the
// nominal pass lengths were measured on a 2-vCPU x86-64 VM.
var sweeps = map[string]sweepSpec{
	"sweep-plans": {ids: []string{"E1", "E2", "E3"}, passS: 20},
	"sweep-views": {ids: []string{"E5", "E6", "E13"}, passS: 3},
}

// passes is the fixed number of passes a run makes: the work is set by
// -seconds alone, never by how fast the code under test is.
func (s sweepSpec) passes(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/s.passS)))
}

// driver resolves an experiment ID in either harness registry.
func driver(id string) func(harness.Config) *harness.Table {
	if f, ok := harness.ByID(id); ok {
		return f
	}
	if f, ok := harness.ByIDSupplementary(id); ok {
		return f
	}
	panic("perfbench: unknown experiment " + id)
}

// sweepOp is one computed table.
type sweepOp struct {
	id    string
	seed  uint64
	table *harness.Table
	dur   time.Duration // wall time
	cpu   time.Duration // on-CPU time of the computing thread
}

// untracedPass computes every table of the workload through the harness,
// as localbench does, timing each driver call. With one worker the harness
// computes every row on the calling goroutine, which is locked to its OS
// thread so that the thread's CPU clock times the sweep. between, when
// non-nil, runs after each table, outside the timed calls.
func untracedPass(spec sweepSpec, o options, between func()) []sweepOp {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ops []sweepOp
	for p := 0; p < spec.passes(o.seconds); p++ {
		seed := o.seed + uint64(p)
		for _, id := range spec.ids {
			f := driver(id)
			start, cpu := time.Now(), threadCPU()
			t := f(harness.Config{Quick: true, Seed: seed, Workers: 1})
			ops = append(ops, sweepOp{id: id, seed: seed, table: t, dur: time.Since(start), cpu: threadCPU() - cpu})
			if between != nil {
				between()
			}
		}
	}
	return ops
}

// threadCPU is the CPU time the calling OS thread has used. The kernel
// charges it only while the thread runs, so unlike wall time it leaves out
// run-queue waits and the time the hypervisor gives the virtual CPU to
// other guests (steal).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

func runSweep(o options, r *run) error {
	spec := sweeps[o.workload]
	if o.trace {
		return traceSweep(spec, o, r)
	}
	setup, err := probeSetup()
	if err != nil {
		return err
	}
	ops := untracedPass(spec, o, nil)
	checkTables(ops, r)

	// Sweep times are on-CPU times: on a shared virtual machine, steal
	// phases stretch wall time by up to half (20-30% steal in /proc/stat
	// took a 21 s sweep-views run to 34 s) while the thread's CPU time
	// moves little. A pass is the sweep's operation: cold_p50_ms is the
	// median pass, warm_p50_ms the median pass after the process's first.
	var cpu, wall time.Duration
	passes := make([]float64, len(ops)/len(spec.ids))
	for i, op := range ops {
		cpu += op.cpu
		wall += op.dur
		passes[i/len(spec.ids)] += float64(op.cpu) / float64(time.Millisecond)
	}
	info("sweep wall time %.3fs, on-CPU time %.3fs", wall.Seconds(), cpu.Seconds())
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.set("sweep_s", cpu.Seconds(), "s")
	r.set("cold_p50_ms", median(passes), "ms")
	r.set("warm_p50_ms", median(passes[min(1, len(passes)-1):]), "ms")
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", rss, "MB")
	return nil
}

//go:embed pins.txt
var pinsFile string

// pins maps "<experiment> <seed>" to the SHA-256 of the rendered table.
func pins() map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(pinsFile))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && !strings.HasPrefix(f[0], "#") {
			m[f[0]+" "+f[1]] = f[2]
		}
	}
	return m
}

// checkTables counts each table as one operation and fails it when it
// holds a NO cell or, at the default seed, when its rendering differs from
// the pinned one.
func checkTables(ops []sweepOp, r *run) {
	pinned := pins()
	for _, op := range ops {
		r.attempted++
		var buf bytes.Buffer
		op.table.Render(&buf)
		out := buf.String()
		if strings.Contains(out, " NO ") || strings.Contains(out, " NO\n") {
			r.fail("%s seed %d: table has a NO cell:\n%s", op.id, op.seed, out)
			continue
		}
		if op.seed != defaultSeed {
			continue
		}
		sum := sha256.Sum256(buf.Bytes())
		key := op.id + " " + strconv.FormatUint(op.seed, 10)
		if got := hex.EncodeToString(sum[:]); got != pinned[key] {
			r.fail("%s seed %d: table sha256 %s, pinned %q:\n%s", op.id, op.seed, got, pinned[key], out)
		}
	}
}

// peakRSS reads a process's peak resident set (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostRef times a fixed register-only loop. It does no work the program
// does; a run whose figures are all slow and whose host.ref_ms is high fell
// in a slow phase of the host.
func hostRef() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	refSink = x
	return float64(el) / float64(time.Millisecond)
}

var refSink uint64

// sweepLayerMetrics are the per-layer metrics only the sweeps measure.
var sweepLayerMetrics = map[string]string{
	"graph.generate_s": "s", "graph.generate_calls": "count", "factory.build_s": "s",
	"machine.init_s": "s", "machine.init_calls": "count", "machine.step_s": "s", "machine.step_calls": "count",
	"sim.kernel_s": "s", "sim.runs": "count", "sim.rounds": "count", "sim.messages": "count",
	"check.validate_s": "s", "check.calls": "count", "runtime.mallocs": "count", "runtime.gc_cycles": "count",
	"trace.wall_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s", "host.ref_ms": "ms",
}

// traceSweep makes the traced run: an untraced pass through the harness
// (the reference tables, the allocation counts and the untraced wall
// time), then the replica pass of replica.go, which times every layer from
// outside. Each replicated row must equal the harness row.
func traceSweep(spec sweepSpec, o options, r *run) error {
	var refs []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := untracedPass(spec, o, func() { refs = append(refs, hostRef()) })
	runtime.ReadMemStats(&ms1)
	checkTables(ops, r)
	var untraced time.Duration
	for _, op := range ops {
		untraced += op.dur
	}

	var l layers
	start := time.Now()
	replicas := make([]*harness.Table, len(ops))
	for i, op := range ops {
		replicas[i] = replicate(op.id, op.seed, &l)
	}
	traced := time.Since(start)
	for i, op := range ops {
		if d := diffRows(op.table, replicas[i]); d != "" {
			r.fail("%s seed %d: replica differs from the harness: %s", op.id, op.seed, d)
		}
	}

	sum := l.generate + l.factory + l.init + l.step + l.kernel + l.check
	info("traced wall %.3fs = graph %.3f + factory %.3f + init %.3f + step %.3f + kernel %.3f + check %.3f + remainder %.3f",
		traced.Seconds(), l.generate.Seconds(), l.factory.Seconds(), l.init.Seconds(), l.step.Seconds(),
		l.kernel.Seconds(), l.check.Seconds(), (traced - sum).Seconds())
	r.set("graph.generate_s", l.generate.Seconds(), "s")
	r.set("graph.generate_calls", float64(l.generateCalls), "count")
	r.set("factory.build_s", l.factory.Seconds(), "s")
	r.set("machine.init_s", l.init.Seconds(), "s")
	r.set("machine.init_calls", float64(l.initCalls), "count")
	r.set("machine.step_s", l.step.Seconds(), "s")
	r.set("machine.step_calls", float64(l.stepCalls), "count")
	r.set("sim.kernel_s", l.kernel.Seconds(), "s")
	r.set("sim.runs", float64(l.runs), "count")
	r.set("sim.rounds", float64(l.rounds), "count")
	r.set("sim.messages", float64(l.messages), "count")
	r.set("check.validate_s", l.check.Seconds(), "s")
	r.set("check.calls", float64(l.checkCalls), "count")
	r.set("trace.wall_s", traced.Seconds(), "s")
	r.set("trace.remainder_s", (traced - sum).Seconds(), "s")
	r.set("trace.overhead_s", (traced - untraced).Seconds(), "s")
	r.set("runtime.mallocs", float64(ms1.Mallocs-ms0.Mallocs), "count")
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	r.set("host.ref_ms", median(refs), "ms")
	zeroMissing(r, servingLayerMetrics)
	return nil
}

// diffRows describes the first difference between two tables' rows, or
// returns "" when every cell matches.
func diffRows(want, got *harness.Table) string {
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !slices.Equal(want.Rows[i], got.Rows[i]) {
			return fmt.Sprintf("row %d is %q, want %q", i, got.Rows[i], want.Rows[i])
		}
	}
	return ""
}

// zeroMissing reports 0 for the per-layer metrics of layers a workload
// does not exercise, so every traced run prints the same metric set.
func zeroMissing(r *run, names map[string]string) {
	for name, unit := range names {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}
