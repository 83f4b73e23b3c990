package main

// The serve-cold-warm workload: a real localityd process with a result
// store, driven over HTTP by this process in an open loop. Phase 1 submits
// N distinct quick E8 specs, which the daemon computes and writes through
// to the store; the daemon then restarts on the same store directory, and
// phase 2 submits the same N specs again in a shuffled order, each answered
// from the store.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"locality/internal/harness"
	"locality/internal/obs/trace"
)

// Phase rates. A cold E8 job costs the daemon about 25 ms of CPU, so two
// pool workers on two CPUs compute about 80 a second. The cold rate is an
// eighth of that, so requests seldom queue behind each other: at a third of
// capacity, a phase in which the hypervisor took 25-30% of the CPUs
// (steal) tripled the cold median through queueing, where here it adds
// about the steal share. The warm rate is low enough that the warm phase
// spans seconds, not a burst a host hiccup can cover.
const (
	coldRate = 10 // per second
	warmRate = 40 // per second
	// opsPerSecond sizes N from -seconds: N/coldRate + N/warmRate seconds.
	opsPerSecond = 1 / (1.0/coldRate + 1.0/warmRate)
	// maxInFlight bounds the open loop's outstanding requests; past it the
	// generator runs late, which loadgen.late_ms reports.
	maxInFlight = 64
	// recomputeSample is how many cold specs are recomputed in-process
	// after the timed window to check the daemon's outputs.
	recomputeSample = 16
	opTimeout       = 30 * time.Second
)

// spanNames are the daemon spans whose mean self time the traced run
// reports.
var spanNames = []string{"http.submit", "http.get", "http.events", "pool.admit", "store.get",
	"queue.wait", "job.run", "batch.commit", "store.put"}

// servingLayerMetrics are the per-layer metrics only this workload
// measures, with their units.
var servingLayerMetrics = func() map[string]string {
	m := map[string]string{
		"client.submit_ms": "ms", "client.fetch_ms": "ms",
		"daemon.cold_cpu_ms_per_op": "ms", "daemon.warm_cpu_ms_per_op": "ms",
		"store.hits": "count", "store.misses": "count", "jobs.deduped": "count", "jobs.shed": "count",
		"daemon.restart_s": "s", "loadgen.late_ms": "ms", "cold_tail_ms": "ms", "warm_tail_ms": "ms",
	}
	for _, n := range spanNames {
		m["span."+n+"_ms"] = "ms"
	}
	return m
}()

// daemon is one running localityd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs *tailBuffer
}

// tailBuffer keeps the last lines a daemon logged, for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startDaemon spawns localityd on a free loopback port and returns once
// /readyz answers 200, with the time that took.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A daemon must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting localityd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: &tailBuffer{}}
	addr := make(chan string, 1)
	go func() {
		// Reads until the daemon exits and closes its stderr, so the pipe
		// never fills.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if _, a, ok := strings.Cut(line, "localityd listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("localityd did not listen within 10s:\n%s", d.logs)
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("localityd not ready within 10s:\n%s", d.logs)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling localityd: %w", err)
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("localityd exit: %w\n%s", err, d.logs)
	}
	return nil
}

// kill ends a daemon that failed to start and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	_ = d.cmd.Wait()         // the start failure is the error worth reporting
}

// cpu is the on-CPU time of all the daemon's threads so far, summed from
// the scheduler's per-thread statistics (nanosecond resolution, and free
// of hypervisor steal).
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("listing daemon threads: %w", err)
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited; Go rarely retires threads
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for daemon thread %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing daemon schedstat %q: %w", data, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// counters reads the store and job counters from /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	want := map[string]string{
		"locality_store_hits_total":    "store.hits",
		"locality_store_misses_total":  "store.misses",
		"locality_jobs_deduped_total":  "jobs.deduped",
		"locality_jobs_shed_total":     "jobs.shed",
		"locality_http_rejected_total": "jobs.shed",
	}
	out := map[string]float64{"store.hits": 0, "store.misses": 0, "jobs.deduped": 0, "jobs.shed": 0}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		key, ok := want[name]
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		out[key] += v
	}
	return out, sc.Err()
}

// client is the load generator's HTTP side: one process, at most nproc
// connections.
type client struct {
	http *http.Client
}

func newClient() *client {
	n := runtime.NumCPU()
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}}
}

type submitReply struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped"`
	Cached  bool   `json:"cached"`
}

type jobReply struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Output string `json:"output"`
}

// opResult is one request's outcome.
type opResult struct {
	err           error
	output        string
	cached        bool
	submit, fetch time.Duration
}

// do submits one quick E8 spec, waits for the job on its event stream
// unless the submit was answered from the store, and fetches the output.
func (c *client) do(ctx context.Context, base string, seed uint64) (res opResult) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	body := fmt.Sprintf(`{"experiment":"E8","quick":true,"seed":%d}`, seed)
	start := time.Now()
	var sub submitReply
	if err := c.call(ctx, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	res.submit = time.Since(start)
	res.cached = sub.Cached
	if !sub.Cached {
		if err := c.awaitTerminal(ctx, base+"/v1/jobs/"+sub.ID+"/events"); err != nil {
			res.err = err
			return res
		}
	}
	fetchStart := time.Now()
	var j jobReply
	if err := c.call(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID, "", http.StatusOK, &j); err != nil {
		res.err = fmt.Errorf("fetch: %w", err)
		return res
	}
	res.fetch = time.Since(fetchStart)
	if j.State != "succeeded" || j.Output == "" {
		res.err = fmt.Errorf("job %s ended %s: %s", sub.ID, j.State, j.Error)
	}
	res.output = j.Output
	return res
}

func (c *client) call(ctx context.Context, method, url, body string, want int, out any) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// awaitTerminal reads a job's event stream until the job is terminal.
func (c *client) awaitTerminal(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if event == "terminal" {
			return nil
		}
		var snap struct {
			State string `json:"state"`
		}
		if event == "snapshot" && json.Unmarshal([]byte(data), &snap) == nil &&
			(snap.State == "succeeded" || snap.State == "failed" || snap.State == "cancelled") {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return errors.New("events: stream ended before the job was terminal")
}

// phase is one timed open-loop phase.
type phase struct {
	latency, late []time.Duration
	results       []opResult
	wall          time.Duration
	cpu           time.Duration // daemon CPU time over the phase
	counters      map[string]float64
}

// runPhase sends one request per seed, in order, at rate per second.
func runPhase(c *client, d *daemon, seeds []uint64, rate float64) (*phase, error) {
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	p := &phase{results: make([]opResult, len(seeds))}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	p.latency, p.late = openLoop(newWallClock(), len(seeds), time.Duration(float64(time.Second)/rate),
		func(i int, done func()) {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.results[i] = c.do(context.Background(), d.base, seeds[i])
				done()
				<-sem
			}()
		})
	wg.Wait()
	p.wall = time.Since(start)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.counters, err = d.counters(); err != nil {
		return nil, err
	}
	return p, nil
}

// okLatencies are the latencies of the requests that succeeded.
func (p *phase) okLatencies() []float64 {
	var out []float64
	for i, r := range p.results {
		if r.err == nil {
			out = append(out, float64(p.latency[i])/float64(time.Millisecond))
		}
	}
	return out
}

// coldSeeds draws n distinct job seeds from the workload seed. They all
// have the top bit set, a range no other request of the benchmark uses.
func coldSeeds(seed uint64, n int) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0xc01d))
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := r.Uint64() | 1<<63
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// serveRun is one pass of the whole workload.
type serveRun struct {
	setup        []float64
	restart      time.Duration
	cold, warm   *phase
	peakRSS      float64
	coldByS      map[uint64]string
	seeds, order []uint64
}

// serveOnce runs set-up, the cold phase, the restart and the warm phase
// against daemons that keep their files under dir. With traceDir set,
// both daemons write span traces there.
func serveOnce(o options, dir, traceDir string, r *run) (*serveRun, error) {
	n := max(1, int(float64(o.seconds)*opsPerSecond))
	sr := &serveRun{seeds: coldSeeds(o.seed, n)}
	sr.order = append([]uint64(nil), sr.seeds...)
	rand.New(rand.NewPCG(o.seed, 0x3a1)).Shuffle(n, func(i, j int) {
		sr.order[i], sr.order[j] = sr.order[j], sr.order[i]
	})

	// Set-up is the CPU time a daemon spends from spawn to ready, like the
	// sweeps' set-up (see probeSetup).
	for i := 0; i < setupSamples-1; i++ {
		d, _, err := startDaemon(o.daemon, "-store-dir", filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setupCPU, err := d.cpu()
		if err := errors.Join(err, d.stop()); err != nil {
			return nil, err
		}
		sr.setup = append(sr.setup, setupCPU.Seconds())
	}
	args := func(proc string) []string {
		a := []string{"-store-dir", filepath.Join(dir, "store")}
		if traceDir != "" {
			a = append(a, "-trace-dir", traceDir, "-trace-proc", proc)
		}
		return a
	}
	c := newClient()
	defer c.http.CloseIdleConnections()

	d, _, err := startDaemon(o.daemon, args("cold")...)
	if err != nil {
		return nil, err
	}
	setupCPU, err := d.cpu()
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	sr.setup = append(sr.setup, setupCPU.Seconds())
	sr.cold, err = runPhase(c, d, sr.seeds, coldRate)
	if err == nil {
		sr.peakRSS, err = peakRSS(d.cmd.Process.Pid)
	}
	if err := errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	c.http.CloseIdleConnections()

	d, sr.restart, err = startDaemon(o.daemon, args("warm")...)
	if err != nil {
		return nil, err
	}
	sr.warm, err = runPhase(c, d, sr.order, warmRate)
	var rss float64
	if err == nil {
		rss, err = peakRSS(d.cmd.Process.Pid)
	}
	if err := errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	sr.peakRSS = max(sr.peakRSS, rss)
	sr.check(r)
	return sr, nil
}

// check counts every request as one operation and applies the workload's
// output checks and invariants.
func (sr *serveRun) check(r *run) {
	n := float64(len(sr.seeds))
	sr.coldByS = map[uint64]string{}
	for i, res := range sr.cold.results {
		r.attempted++
		switch {
		case res.err != nil:
			r.fail("cold seed %d: %v", sr.seeds[i], res.err)
		case res.cached:
			r.fail("cold seed %d answered from the store", sr.seeds[i])
		default:
			sr.coldByS[sr.seeds[i]] = res.output
		}
	}
	for i, res := range sr.warm.results {
		r.attempted++
		s := sr.order[i]
		switch {
		case res.err != nil:
			r.fail("warm seed %d: %v", s, res.err)
		case !res.cached:
			r.fail("warm seed %d was not answered from the store", s)
		case res.output != sr.coldByS[s]:
			r.fail("warm seed %d: output differs from the cold output", s)
		}
	}
	for name, c := range map[string]map[string]float64{"cold": sr.cold.counters, "warm": sr.warm.counters} {
		want := map[string]float64{"store.misses": n, "store.hits": 0, "jobs.deduped": 0, "jobs.shed": 0}
		if name == "warm" {
			want["store.misses"], want["store.hits"] = 0, n
		}
		for k, v := range want {
			if c[k] != v {
				r.fail("after the %s phase %s = %v, want %v", name, k, c[k], v)
			}
		}
	}
	// A seeded sample of the cold specs, recomputed in this process.
	rs := rand.New(rand.NewPCG(sr.seeds[0], 0x7e57))
	for _, i := range rs.Perm(len(sr.seeds))[:min(recomputeSample, len(sr.seeds))] {
		r.attempted++
		s := sr.seeds[i]
		var buf bytes.Buffer
		driver("E8")(harness.Config{Quick: true, Seed: s, Workers: 1}).Render(&buf)
		if got, ok := sr.coldByS[s]; ok && got != buf.String() {
			r.fail("cold seed %d: daemon output differs from the in-process harness", s)
		}
	}
}

func runServe(o options, r *run) error {
	if o.daemon == "" {
		return errors.New("-daemon is required")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return fmt.Errorf("making the run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	sr, err := serveOnce(o, filepath.Join(dir, "untraced"), "", r)
	if err != nil {
		return err
	}
	if !o.trace {
		r.set("sweep_s", (sr.cold.wall + sr.warm.wall).Seconds(), "s")
		r.set("cold_p50_ms", median(sr.cold.okLatencies()), "ms")
		r.set("warm_p50_ms", median(sr.warm.okLatencies()), "ms")
		r.set("setup_s", median(sr.setup), "s")
		r.set("peak_rss_mb", sr.peakRSS, "MB")
		describe("cold latency", sr.cold.okLatencies())
		describe("warm latency", sr.warm.okLatencies())
		return nil
	}

	var submit, fetch []float64
	for _, p := range []*phase{sr.cold, sr.warm} {
		for _, res := range p.results {
			if res.err == nil {
				submit = append(submit, float64(res.submit)/float64(time.Millisecond))
				fetch = append(fetch, float64(res.fetch)/float64(time.Millisecond))
			}
		}
	}
	r.set("client.submit_ms", median(submit), "ms")
	r.set("client.fetch_ms", median(fetch), "ms")
	n := float64(len(sr.seeds))
	r.set("daemon.cold_cpu_ms_per_op", float64(sr.cold.cpu)/float64(time.Millisecond)/n, "ms")
	r.set("daemon.warm_cpu_ms_per_op", float64(sr.warm.cpu)/float64(time.Millisecond)/n, "ms")
	r.set("store.misses", sr.cold.counters["store.misses"], "count")
	r.set("store.hits", sr.warm.counters["store.hits"], "count")
	r.set("jobs.deduped", sr.cold.counters["jobs.deduped"]+sr.warm.counters["jobs.deduped"], "count")
	r.set("jobs.shed", sr.cold.counters["jobs.shed"]+sr.warm.counters["jobs.shed"], "count")
	r.set("daemon.restart_s", sr.restart.Seconds(), "s")
	late := append(millis(sr.cold.late), millis(sr.warm.late)...)
	r.set("loadgen.late_ms", median(late), "ms")
	for _, ph := range []struct {
		name string
		p    *phase
	}{{"cold", sr.cold}, {"warm", sr.warm}} {
		t, _ := describe(ph.name+" latency", ph.p.okLatencies()) // refused (0) below 20 requests
		r.set(ph.name+"_tail_ms", t.Value, "ms")
	}
	describe("loadgen lateness", late)

	// The span figures come from a second, traced pass.
	traceDir := filepath.Join(dir, "trace")
	if _, err := serveOnce(o, filepath.Join(dir, "traced"), traceDir, r); err != nil {
		return err
	}
	spans, err := spanSelfTimes(traceDir)
	if err != nil {
		return err
	}
	for _, name := range spanNames {
		r.set("span."+name+"_ms", spans[name], "ms")
	}
	zeroMissing(r, sweepLayerMetrics)
	return nil
}

// describe prints the quartiles and the tail of a set of millisecond
// figures and returns the tail.
func describe(what string, ms []float64) (tail, bool) {
	if q, ok := quartiles(ms); ok {
		info("%s quartiles %.3f / %.3f / %.3f ms (n %d)", what, q[0], q[1], q[2], len(ms))
	}
	t, ok := tailOf(ms)
	if ok {
		info("%s tail p%g = %.3f ms (rank %d of %d)", what, t.Percentile, t.Value, t.Rank, t.N)
	}
	return t, ok
}

// spanSelfTimes loads both daemons' span traces and returns each span
// name's mean self time in milliseconds.
func spanSelfTimes(dir string) (map[string]float64, error) {
	loaded, err := trace.Load(dir)
	if err != nil {
		return nil, err
	}
	forest := trace.Assemble(loaded.Spans)
	total := map[string]int64{}
	count := map[string]int{}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		total[n.Name] += trace.ExclusiveNanos(n)
		count[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range forest.Traces {
		for _, root := range t.Roots {
			walk(root)
		}
	}
	out := map[string]float64{}
	for name, ns := range total {
		out[name] = float64(ns) / float64(count[name]) / 1e6
	}
	return out, nil
}
