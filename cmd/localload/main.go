// Command localload drives the deterministic multi-tenant load workload
// (internal/load) against a localityd and gates the result: the fairness
// verdict (an abusive tenant must not degrade a well-behaved tenant's p99
// beyond the configured ratio, with zero well-behaved sheds), the phase
// invariants (idempotent dedup, clean SSE termination), and — when a
// baseline directory is given — a p99 regression gate against the
// lexically latest LOAD_*.json there. The run's own LOAD_<stamp>.json goes
// to a separate artifact directory, so a run never becomes the baseline of
// the next one.
//
// Two modes:
//
//	-url      point at an already-running daemon (no chaos phase: localload
//	          will not signal a process it does not own).
//	-spawn    build-your-own target: exec a localityd binary
//	          (-localityd-bin) on an ephemeral port with a generated
//	          two-tenant quota file, run the full workload including the
//	          SIGTERM chaos-drain phase, and require the daemon to exit
//	          cleanly after draining.
//
// Exit status 0 iff every gate passed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"locality/internal/load"
	"locality/internal/obs"
	"locality/internal/tenant"
)

func main() {
	var (
		url          = flag.String("url", "", "base URL of a running localityd (mutually exclusive with -spawn)")
		spawn        = flag.Bool("spawn", false, "spawn a localityd (-localityd-bin) and run the full workload incl. SIGTERM chaos phase")
		bin          = flag.String("localityd-bin", "", "localityd binary for -spawn mode")
		seed         = flag.Uint64("seed", 1, "workload seed: every job spec derives from it")
		goodKey      = flag.String("good-key", "load-good-key", "well-behaved tenant API key")
		abuseKey     = flag.String("abuse-key", "load-abuse-key", "abusive tenant API key")
		jobsN        = flag.Int("jobs", 6, "well-behaved jobs per measured phase (solo and contended)")
		abusers      = flag.Int("abusers", 4, "concurrent abusive clients during the contended phase")
		streams      = flag.Int("streams", 3, "concurrent SSE streams in the stream phase")
		dups         = flag.Int("dups", 8, "concurrent identical submits in the duplicate phase")
		experiment   = flag.String("experiment", "E2", "experiment the measured workload submits (quick mode; E2 runs long enough that scheduler noise stays small relative to it)")
		abuseExp     = flag.String("abuse-experiment", "E8", "experiment the abusive flood submits (short by default: admission pressure, not CPU occupation)")
		fairRatio    = flag.Float64("fairness-ratio", 2, "max contended/solo p99 ratio for the fairness verdict")
		floodPause   = flag.Duration("flood-pause", 10*time.Millisecond, "pace between each abusive client's submits (lower = harsher flood)")
		baselineDir  = flag.String("baseline-dir", "", "directory whose lexically latest LOAD_*.json is the baseline of the regression gate (empty = no gate)")
		artifactDir  = flag.String("artifact-dir", "", "directory this run's LOAD_<stamp>.json is written to (empty = no artifact)")
		baseRatio    = flag.Float64("baseline-ratio", load.DefaultBaselineRatio, "max bucket-quantized p99 ratio vs the latest baseline artifact (0 = skip the gate)")
		spawnWorkers = flag.Int("spawn-workers", 4, "worker count for the spawned daemon")
		version      = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("localload: ")

	if *version {
		fmt.Printf("localload %s %s %s/%s\n", obs.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	if (*url == "") == !*spawn {
		log.Fatal("exactly one of -url or -spawn is required")
	}

	ctx := context.Background()
	opts := load.Options{
		Seed:             *seed,
		GoodKey:          *goodKey,
		AbuseKey:         *abuseKey,
		Experiment:       *experiment,
		AbuseExperiment:  *abuseExp,
		SoloJobs:         *jobsN,
		ContendedJobs:    *jobsN,
		AbuseClients:     *abusers,
		Streams:          *streams,
		DuplicateSubmits: *dups,
		MaxFairnessRatio: *fairRatio,
		FloodPause:       *floodPause,
		Logf:             log.Printf,
	}

	var daemon *spawned
	if *spawn {
		if *bin == "" {
			log.Fatal("-spawn requires -localityd-bin")
		}
		var err error
		daemon, err = spawnDaemon(ctx, *bin, *spawnWorkers, *goodKey, *abuseKey)
		if err != nil {
			log.Fatalf("spawning localityd: %v", err)
		}
		defer daemon.kill()
		opts.BaseURL = daemon.url
		opts.Chaos = daemon.sigterm
	} else {
		opts.BaseURL = *url
	}

	res, err := load.Run(ctx, opts)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	res.Stamp = load.StampNow()

	ok := res.Passed()
	if daemon != nil {
		if err := daemon.wait(10 * time.Second); err != nil {
			log.Printf("GATE FAIL: daemon did not drain cleanly after SIGTERM: %v", err)
			ok = false
		}
	}

	if *baselineDir != "" && *baseRatio > 0 {
		basePath, base, err := load.Latest(*baselineDir)
		if err != nil {
			log.Fatalf("reading baseline: %v", err)
		}
		if err := load.CompareBaseline(res, base, *baseRatio); err != nil {
			log.Printf("GATE FAIL vs %s: %v", basePath, err)
			ok = false
		} else if base != nil {
			log.Printf("baseline gate OK vs %s", filepath.Base(basePath))
		}
	}
	if *artifactDir != "" {
		path, err := load.Write(*artifactDir, res)
		if err != nil {
			log.Fatalf("writing artifact: %v", err)
		}
		log.Printf("artifact: %s", path)
	}

	summary, _ := json.MarshalIndent(res, "", "  ")
	fmt.Println(string(summary))
	for _, f := range res.Failures {
		log.Printf("GATE FAIL: %s", f)
	}
	if !ok {
		os.Exit(1)
	}
	log.Printf("all gates passed (fairness ratio %.2f ≤ %.2f, %d abusive sheds absorbed)",
		res.FairnessRatio, res.MaxFairnessRatio, res.AbuseSheds)
}

// spawned is a localload-owned localityd process.
type spawned struct {
	cmd *exec.Cmd
	url string
}

// spawnDaemon execs the daemon on an ephemeral port with a generated
// two-tenant quota file: the well-behaved tenant gets weight but no caps,
// the abusive one gets tight rate/queue/in-flight quotas — the contended
// phase is only a fairness test if the server can actually tell the
// tenants apart. The listen address is parsed from the daemon's own
// "listening on" log line, so there is no port-picking race.
func spawnDaemon(ctx context.Context, bin string, workers int, goodKey, abuseKey string) (*spawned, error) {
	dir, err := os.MkdirTemp("", "localload-*")
	if err != nil {
		return nil, err
	}
	// The abusive quota is tight on purpose: at most one abusive job may
	// occupy a worker and the token bucket admits ~2/s, so the flood is
	// absorbed on the cheap structured-shed path. Loose quotas here would
	// turn the contended phase into a raw CPU-share measurement — on a
	// small machine the client swarm, the daemon and the abusive jobs all
	// multiplex the same cores.
	cfg := tenant.Config{
		Pinned: []tenant.Pinned{
			{Name: "good", Key: goodKey, Limits: tenant.Limits{Weight: 4, MaxStreams: 64}},
			{Name: "abuse", Key: abuseKey, Limits: tenant.Limits{
				MaxInFlight: 1, MaxQueued: 2, Rate: 2, Burst: 1, MaxStreams: 4}},
		},
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	tenantsFile := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenantsFile, data, 0o644); err != nil {
		return nil, err
	}

	cmd := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0",
		"-workers", fmt.Sprint(workers),
		"-queue", "64",
		"-tenants-file", tenantsFile,
		"-drain-timeout", "10s",
		// The persistent result store under the run's temp dir gives the
		// cache phase its second answer tier (store hits behind the dedup
		// map) and exercises the write-through path under load.
		"-store-dir", filepath.Join(dir, "store"),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &spawned{cmd: cmd}

	// The daemon announces "localityd listening on 127.0.0.1:PORT" on
	// stderr; scan until it does, then keep the pipe drained.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			s.url = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if s.url == "" {
		s.kill()
		return nil, fmt.Errorf("daemon never announced its listen address")
	}
	go io.Copy(io.Discard, stderr) // reaped when the process exits

	if err := waitReady(ctx, s.url); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s not ready within 10s", base)
}

// sigterm is the engine's chaos hook.
func (s *spawned) sigterm() error {
	return s.cmd.Process.Signal(syscall.SIGTERM)
}

// wait requires the signalled daemon to drain and exit 0 within the grace
// period — the process-level half of the chaos-drain gate.
func (s *spawned) wait(grace time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		s.kill()
		return fmt.Errorf("still running %s after SIGTERM", grace)
	}
}

func (s *spawned) kill() {
	_ = s.cmd.Process.Kill()
	_, _ = s.cmd.Process.Wait()
}
