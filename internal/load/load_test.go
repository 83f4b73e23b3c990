package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"locality/internal/jobs"
	"locality/internal/tenant"
)

// stubDaemon is a canned localityd: idempotent submits keyed by body,
// instantly-terminal jobs, SSE streams that replay a snapshot plus a
// terminal frame. It lets the engine's phase logic, classification and
// invariants run deterministically without a real pool.
type stubDaemon struct {
	mu      sync.Mutex
	nextID  int
	byIdent map[string]string // body → job ID
	keys    map[string]bool   // API keys seen
	// shedKey, when set, answers every submit on that key with 429.
	shedKey string
}

func newStubDaemon() *stubDaemon {
	return &stubDaemon{byIdent: map[string]string{}, keys: map[string]bool{}}
}

func (d *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var body submitBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d.mu.Lock()
		key := r.Header.Get(tenant.Header)
		d.keys[key] = true
		if d.shedKey != "" && key == d.shedKey {
			d.mu.Unlock()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"rate","reason":"rate_limited"}`)
			return
		}
		ident := fmt.Sprintf("%s/%d", body.Experiment, body.Seed)
		id, dup := d.byIdent[ident]
		if !dup {
			d.nextID++
			id = fmt.Sprintf("job-%d", d.nextID)
			d.byIdent[ident] = id
		}
		d.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(jobs.SubmitResult{ID: id, Tenant: "stub", Deduped: dup})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j := jobs.Job{ID: r.PathValue("id"), State: jobs.StateSucceeded}
		data, _ := json.Marshal(j)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data)
		fmt.Fprintf(w, "event: terminal\ndata: {\"seq\":1,\"terminal\":true}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobs.Job{ID: r.PathValue("id"), State: jobs.StateSucceeded})
	})
	return mux
}

func TestEngineAgainstStub(t *testing.T) {
	d := newStubDaemon()
	d.shedKey = "abuse-key"
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:          ts.URL,
		Seed:             3,
		GoodKey:          "good-key",
		AbuseKey:         "abuse-key",
		SoloJobs:         3,
		ContendedJobs:    3,
		AbuseClients:     2,
		DuplicateSubmits: 4,
		Streams:          2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("stub run failed: fair=%v failures=%v", res.Fair, res.Failures)
	}
	if res.GoodSheds != 0 {
		t.Errorf("good sheds = %d", res.GoodSheds)
	}
	if res.AbuseSheds == 0 {
		t.Error("abuse sheds = 0, stub shed every abusive submit")
	}
	var dup *PhaseResult
	for i := range res.Phases {
		if res.Phases[i].Name == "duplicate" {
			dup = &res.Phases[i]
		}
	}
	if dup == nil || dup.Deduped != 3 {
		t.Errorf("duplicate phase = %+v, want 3 deduped of 4", dup)
	}
	if res.Schema != Schema {
		t.Errorf("schema %q", res.Schema)
	}
}

// TestEngineDeterministicWorkload: two runs with the same seed submit the
// identical spec set; a different seed diverges.
func TestEngineDeterministicWorkload(t *testing.T) {
	specs := func(seed uint64) map[string]bool {
		d := newStubDaemon()
		ts := httptest.NewServer(d.handler())
		defer ts.Close()
		if _, err := Run(context.Background(), Options{
			BaseURL: ts.URL, Seed: seed,
			GoodKey: "g", AbuseKey: "a",
			SoloJobs: 2, ContendedJobs: 2, AbuseClients: 1,
			DuplicateSubmits: 2, Streams: 1,
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		out := map[string]bool{}
		for ident := range d.byIdent {
			if !strings.Contains(ident, "/") {
				t.Fatalf("malformed identity %q", ident)
			}
			out[ident] = true
		}
		return out
	}
	a, b := specs(11), specs(11)
	// The abusive stream's cut-off is timing-dependent, so compare the
	// timing-independent prefix: every good-tenant identity (solo,
	// contended, duplicate, stream tags) must match exactly.
	for ident := range a {
		if !b[ident] && !strings.HasPrefix(ident, "E8/") {
			t.Errorf("identity %s only in first run", ident)
		}
	}
	if len(a) == 0 {
		t.Fatal("no identities recorded")
	}
	c := specs(12)
	same := 0
	for ident := range a {
		if c[ident] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced the identical workload")
	}
}

func TestArtifactRoundTripAndBaseline(t *testing.T) {
	dir := t.TempDir()
	if _, base, err := Latest(dir); err != nil || base != nil {
		t.Fatalf("empty dir baseline = %v, %v", base, err)
	}

	old := &Result{Schema: Schema, Seed: 1, Stamp: "20260101T000000Z",
		GoodSoloP99Bucket: 25, GoodContendedP99Bucket: 50, Fair: true}
	if _, err := Write(dir, old); err != nil {
		t.Fatal(err)
	}
	newer := &Result{Schema: Schema, Seed: 1, Stamp: "20260202T000000Z",
		GoodSoloP99Bucket: 25, GoodContendedP99Bucket: 50, Fair: true}
	if _, err := Write(dir, newer); err != nil {
		t.Fatal(err)
	}

	path, base, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "LOAD_20260202T000000Z.json" {
		t.Errorf("latest = %s, want the lexically newest stamp", path)
	}
	if base.GoodContendedP99Bucket != 50 {
		t.Errorf("baseline p99 = %v", base.GoodContendedP99Bucket)
	}

	same := &Result{GoodSoloP99Bucket: 25, GoodContendedP99Bucket: 50}
	if err := CompareBaseline(same, base, 2); err != nil {
		t.Errorf("equal run tripped the gate: %v", err)
	}
	atLimit := &Result{GoodSoloP99Bucket: 50, GoodContendedP99Bucket: 100}
	if err := CompareBaseline(atLimit, base, 2); err != nil {
		t.Errorf("2× run must pass a ratio-2 gate: %v", err)
	}
	regressed := &Result{GoodSoloP99Bucket: 25, GoodContendedP99Bucket: 250}
	if err := CompareBaseline(regressed, base, 2); err == nil {
		t.Error("5× contended regression passed the gate")
	}
	if err := CompareBaseline(regressed, nil, 2); err != nil {
		t.Errorf("nil baseline must pass: %v", err)
	}
	if err := CompareBaseline(regressed, base, 0); err == nil {
		t.Error("ratio 0 must default, not disable the gate")
	}

	// Unstamped results refuse to persist; wrong-schema baselines refuse
	// to load.
	if _, err := Write(dir, &Result{Schema: Schema}); err == nil {
		t.Error("unstamped artifact written")
	}
	bad := &Result{Schema: "other/v9", Stamp: "20270101T000000Z"}
	if _, err := Write(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(dir); err == nil {
		t.Error("wrong-schema baseline loaded")
	}
}

// writeArtifact writes a raw file into dir; content "" is a crashed
// writer's zero-length debris.
func writeArtifact(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

var validArtifact = fmt.Sprintf(`{"schema":%q}`, Schema)

func TestLatestPicksLexicallyLast(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "LOAD_20260101T000000Z.json", validArtifact)
	writeArtifact(t, dir, "LOAD_20260301T000000Z.json", validArtifact)
	writeArtifact(t, dir, "LOAD_20260201T000000Z.json", validArtifact)
	got, _, err := Latest(dir)
	if err != nil || filepath.Base(got) != "LOAD_20260301T000000Z.json" {
		t.Fatalf("Latest = %q, %v", got, err)
	}
}

func TestLatestSkipsZeroLength(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "LOAD_20260101T000000Z.json", validArtifact)
	writeArtifact(t, dir, "LOAD_20260301T000000Z.json", "")
	got, _, err := Latest(dir)
	if err != nil || filepath.Base(got) != "LOAD_20260101T000000Z.json" {
		t.Fatalf("Latest = %q, %v; want the non-empty predecessor", got, err)
	}
}

func TestLatestIgnoresNonMatching(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "LOAD_20260101T000000Z.json", validArtifact)
	writeArtifact(t, dir, "OTHER_20260301T000000Z.json", "{}")
	writeArtifact(t, dir, "notes.json", "{}")
	got, _, err := Latest(dir)
	if err != nil || filepath.Base(got) != "LOAD_20260101T000000Z.json" {
		t.Fatalf("Latest = %q, %v", got, err)
	}
}

func TestLatestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	if got, base, err := Latest(filepath.Join(dir, "nope")); got != "" || base != nil || err != nil {
		t.Fatalf("missing dir: %q, %v, %v", got, base, err)
	}
	// All candidates zero-length: no usable baseline.
	writeArtifact(t, dir, "LOAD_20260101T000000Z.json", "")
	if got, base, err := Latest(dir); got != "" || base != nil || err != nil {
		t.Fatalf("all-empty dir: %q, %v, %v", got, base, err)
	}
}

func TestFairnessRatioGuards(t *testing.T) {
	cases := []struct {
		solo, contended, want float64
	}{
		{25, 50, 2},
		{25, 25, 1},
		{0, 0, 1},
		{0, 25, math.MaxFloat64},
	}
	for _, c := range cases {
		if got := fairnessRatio(c.solo, c.contended); got != c.want {
			t.Errorf("fairnessRatio(%v, %v) = %v, want %v", c.solo, c.contended, got, c.want)
		}
	}
}

// TestFairnessVerdictFloor pins the fairness verdict around its noise
// floor: a ratio over the bound fails whenever solo p99 reaches the floor,
// is ignored below it, and well-behaved sheds fail on either side.
func TestFairnessVerdictFloor(t *testing.T) {
	cases := []struct {
		solo, ratio float64
		sheds       int
		want        bool
	}{
		{199, 2.5, 0, false},              // the production gate's scale
		{ratioFloorMillis, 2.5, 0, false}, // at the floor the ratio counts
		{199, 2, 0, true},
		{0.4, 2.25, 0, true}, // sub-millisecond stub noise
		{0.4, 1, 1, false},
		{199, 1, 1, false},
		{overflowMillis, math.MaxFloat64, 0, false},
	}
	for _, c := range cases {
		if got := fairnessHolds(c.solo, c.ratio, 2, c.sheds); got != c.want {
			t.Errorf("fairnessHolds(solo %v, ratio %v, max 2, sheds %d) = %v, want %v",
				c.solo, c.ratio, c.sheds, got, c.want)
		}
	}
}
