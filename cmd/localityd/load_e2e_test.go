package main

// The multi-tenant fairness acceptance test: the exact workload the
// release gate runs (internal/load, the engine behind cmd/localload),
// driven in-process under the race detector. An abusive tenant floods
// submissions while a well-behaved tenant runs its measured workload; the
// quota + weighted-fair-share admission layer must hold the well-behaved
// tenant's p99 within the fairness ratio of its solo baseline, shed ZERO
// well-behaved requests, and absorb the flood as structured 429s.

import (
	"context"
	"testing"
	"time"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/load"
	"locality/internal/tenant"
)

func TestMultiTenantFairnessE2E(t *testing.T) {
	_, ts := testServer(t, jobs.Options{
		Workers:    4,
		QueueDepth: 64,
		Idempotent: true,
		// A fixed per-batch pause makes job duration sleep-dominated:
		// sleeping workers do not compete for the (possibly single) CPU,
		// so the contended/solo ratio measures admission fairness rather
		// than raw scheduler share between race-instrumented goroutines.
		// The pause is generous on purpose — scheduling noise on a busy
		// single-core -race run is tens of ms per job, and a longer job
		// makes that noise small relative to the p99s being compared.
		BatchHook: func(string, *harness.Checkpoint) { time.Sleep(25 * time.Millisecond) },
		// The abusive quota is deliberately tight: at most one abusive job
		// runs at a time and the token bucket admits ~1/s, so the flood is
		// absorbed on the cheap shed path instead of occupying workers —
		// which is exactly the protection the fairness verdict asserts.
		Tenancy: &tenant.Config{
			Pinned: []tenant.Pinned{
				{Name: "good", Key: "good-key", Limits: tenant.Limits{Weight: 4, MaxStreams: 16}},
				{Name: "abuse", Key: "abuse-key", Limits: tenant.Limits{
					MaxInFlight: 1, MaxQueued: 2, Rate: 1, Burst: 1, MaxStreams: 4}},
			},
		},
	})

	res, err := load.Run(context.Background(), load.Options{
		BaseURL:          ts.URL,
		Seed:             7,
		GoodKey:          "good-key",
		AbuseKey:         "abuse-key",
		SoloJobs:         4,
		ContendedJobs:    4,
		AbuseClients:     2,
		DuplicateSubmits: 6,
		Streams:          2,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("load.Run: %v", err)
	}

	for _, f := range res.Failures {
		t.Errorf("gate failure: %s", f)
	}
	if !res.Fair {
		t.Errorf("fairness verdict false: contended p99 %.1fms vs solo %.1fms (ratio %.2f), %d good sheds",
			res.GoodContendedP99, res.GoodSoloP99, res.FairnessRatio, res.GoodSheds)
	}
	if res.GoodSheds != 0 {
		t.Errorf("well-behaved tenant shed %d times, want 0", res.GoodSheds)
	}
	if res.AbuseSheds == 0 {
		t.Error("abusive flood was never shed — the quota layer did nothing")
	}
	// Every phase ran: solo, contended, abuse, duplicate, stream, cache (no
	// chaos in-process — there is no child to signal).
	want := map[string]bool{"solo": false, "contended": false, "abuse": false, "duplicate": false, "stream": false, "cache": false}
	for _, ph := range res.Phases {
		if _, ok := want[ph.Name]; ok {
			want[ph.Name] = true
		}
		// This server has no result store, so every warm cache-phase answer
		// must come from the idempotent dedup tier.
		if ph.Name == "cache" && ph.Deduped == 0 {
			t.Errorf("cache phase: no deduped warm hits (result: %+v)", ph)
		}
	}
	for _, name := range []string{"solo", "contended", "abuse", "duplicate", "stream", "cache"} {
		if !want[name] {
			t.Errorf("phase %s missing from result", name)
		}
	}
	if !res.Passed() {
		t.Error("Result.Passed() = false")
	}
}
