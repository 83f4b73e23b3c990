package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"locality/internal/rng"
)

// TestNewDefaults pins the coordinator a bare membership builds: 5s per
// HTTP attempt, 3 attempts per call, backoff {100ms, 5s, seed 1} with the
// seed mixed per shard, a 100ms poll, a 500ms probe cadence and a
// 3-failure probe threshold — the settings `localityd -coordinator` runs.
func TestNewDefaults(t *testing.T) {
	c, err := New(Options{Shards: []Shard{
		{Name: "a", URL: "http://127.0.0.1:1"},
		{Name: "b", URL: "http://127.0.0.1:2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.PollInterval != 100*time.Millisecond {
		t.Errorf("poll interval %v, want 100ms", c.opts.PollInterval)
	}
	if probeThreshold != 3 {
		t.Errorf("probe threshold %d, want 3", probeThreshold)
	}
	if requestTimeout != 5*time.Second {
		t.Errorf("request timeout %v, want 5s", requestTimeout)
	}
	for i, ss := range c.shards {
		want := Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second, Seed: rng.Mix64(1, uint64(i))}
		if ss.client.Backoff != want || ss.prober.Backoff != want {
			t.Errorf("shard %d: client backoff %+v, prober backoff %+v, want %+v",
				i, ss.client.Backoff, ss.prober.Backoff, want)
		}
		if got := ss.client.HTTP.Timeout; got != requestTimeout {
			t.Errorf("shard %d: HTTP timeout %v, want %v", i, got, requestTimeout)
		}
		if ss.prober.Interval != 500*time.Millisecond {
			t.Errorf("shard %d: probe interval %v, want 500ms", i, ss.prober.Interval)
		}
	}

	// A shard that always answers 503 sees three attempts per call. The
	// copy waits no backoff, so the count costs no wall time.
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		rw.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cl := *c.shards[0].client
	cl.Shard.URL = srv.URL
	cl.Backoff = Backoff{}
	if _, err := cl.Job(context.Background(), "job-0"); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("always-503 shard: got %v, want ErrShardUnavailable", err)
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("always-503 shard saw %d attempts, want 3", n)
	}
}

// TestBackoffDeterministic: the schedule is pure arithmetic on (Seed,
// attempt) — reproducible, jittered within [0.5, 1.5) of nominal, capped.
func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 42}
	for attempt := 0; attempt <= 8; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, d1, d2)
		}
		if attempt == 0 {
			if d1 != 0 {
				t.Fatalf("attempt 0 waits %v", d1)
			}
			continue
		}
		nominal := b.Base << (attempt - 1)
		if nominal > b.Max {
			nominal = b.Max
		}
		lo := time.Duration(float64(nominal) * 0.5)
		if d1 < lo || d1 > b.Max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, lo, b.Max)
		}
	}
	if (Backoff{}).Delay(3) != 0 {
		t.Fatal("zero Backoff must not wait")
	}
	if d := (Backoff{Base: time.Millisecond, Seed: 9}).Delay(63); d <= 0 {
		t.Fatalf("overflow-guarded delay went non-positive: %v", d)
	}
	// Different seeds give different jitter streams (overwhelmingly likely).
	alt := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 43}
	same := true
	for attempt := 1; attempt <= 4; attempt++ {
		if alt.Delay(attempt) != b.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}
