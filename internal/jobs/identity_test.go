package jobs_test

import (
	"sync"
	"testing"
	"time"

	"locality/internal/jobs"
)

// TestIdempotentSubmitDedups: with Options.Idempotent, resubmitting the
// same determinism identity returns the existing job — across the queued,
// running and succeeded states — while failed/cancelled jobs recompute.
func TestIdempotentSubmitDedups(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 2, Idempotent: true})
	defer closePool(t, p)

	spec := jobs.Spec{Experiment: "E8", Quick: true, Seed: 7}
	first, err := p.SubmitTenant("", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if first.Deduped {
		t.Fatal("first submission marked deduped")
	}
	dup, err := p.SubmitTenant("", spec)
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("duplicate not deduped: %+v vs first %+v", dup, first)
	}
	if j := waitTerminal(t, p, first.ID); j.State != jobs.StateSucceeded {
		t.Fatalf("job failed: %s %q", j.State, j.Error)
	}
	// Succeeded jobs still dedup: the result is already computed.
	dup2, err := p.SubmitTenant("", spec)
	if err != nil || !dup2.Deduped || dup2.ID != first.ID {
		t.Fatalf("post-success dedup: %+v, %v", dup2, err)
	}
	// Timeout and Workers are not identity: they must dedup too.
	alt := spec
	alt.Workers = 3
	alt.Timeout = time.Minute
	dup3, err := p.SubmitTenant("", alt)
	if err != nil || !dup3.Deduped || dup3.ID != first.ID {
		t.Fatalf("workers/timeout changed identity: %+v, %v", dup3, err)
	}
	// A different seed is a different job.
	other := spec
	other.Seed = 8
	fresh, err := p.SubmitTenant("", other)
	if err != nil || fresh.Deduped || fresh.ID == first.ID {
		t.Fatalf("distinct seed deduped: %+v, %v", fresh, err)
	}
}

// TestIdempotentExperimentCaseInsensitive: experiment IDs resolve
// case-insensitively in both registries, and the pool canonicalizes them
// before hashing the identity, so "e1" dedups onto an "E1" job and "e12"
// is admitted as E12.
func TestIdempotentExperimentCaseInsensitive(t *testing.T) {
	p := jobs.New(jobs.Options{Workers: 2, Idempotent: true})
	defer closePool(t, p)

	first, err := p.SubmitTenant("", jobs.Spec{Experiment: "E1", Quick: true, Seed: 7})
	if err != nil {
		t.Fatalf("submit E1: %v", err)
	}
	dup, err := p.SubmitTenant("", jobs.Spec{Experiment: "e1", Quick: true, Seed: 7})
	if err != nil || !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("e1 after E1: %+v, %v; want deduped onto %s", dup, err, first.ID)
	}
	supp, err := p.SubmitTenant("", jobs.Spec{Experiment: "e12", Quick: true, Seed: 7})
	if err != nil || supp.Deduped {
		t.Fatalf("e12: %+v, %v; want admitted", supp, err)
	}
	if j, _ := p.Get(supp.ID); j.Spec.Experiment != "E12" {
		t.Errorf("e12 job holds experiment %q, want the canonical E12", j.Spec.Experiment)
	}
	if err := p.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, p, first.ID)
	if j := waitTerminal(t, p, supp.ID); j.State != jobs.StateSucceeded {
		t.Fatalf("e12 job: %s %q", j.State, j.Error)
	}
}

// TestIdempotentCancelledRecomputes: a cancelled job must not satisfy later
// submissions — the caller asked for the result and never got one.
func TestIdempotentCancelledRecomputes(t *testing.T) {
	// One worker pinned on a long job so the target job stays queued and
	// can be cancelled before it starts.
	p := jobs.New(jobs.Options{Workers: 1, Idempotent: true})
	defer closePool(t, p)

	blocker, err := p.SubmitTenant("", jobs.Spec{Experiment: "E12", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{Experiment: "E8", Quick: true, Seed: 77}
	queued, err := p.SubmitTenant("", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, p, queued.ID); j.State != jobs.StateCancelled {
		t.Fatalf("state %s, want cancelled", j.State)
	}
	res, err := p.SubmitTenant("", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped || res.ID == queued.ID {
		t.Fatalf("cancelled job satisfied a resubmission: %+v", res)
	}
	waitTerminal(t, p, blocker.ID)
	waitTerminal(t, p, res.ID)
}

// TestIdempotentConcurrentSingleExecution is the satellite acceptance test:
// the same identity submitted N times concurrently yields exactly one job,
// one execution, and byte-identical bodies for every caller.
func TestIdempotentConcurrentSingleExecution(t *testing.T) {
	want, _ := runDirect(t, jobs.Spec{Experiment: "E8", Quick: true, Seed: 3})
	p := jobs.New(jobs.Options{Workers: 4, QueueDepth: 4, Idempotent: true})
	defer closePool(t, p)

	const n = 32
	spec := jobs.Spec{Experiment: "E8", Quick: true, Seed: 3}
	results := make([]jobs.SubmitResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.SubmitTenant("", spec)
		}(i)
	}
	wg.Wait()

	fresh := 0
	id := ""
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if id == "" {
			id = results[i].ID
		}
		if results[i].ID != id {
			t.Fatalf("two job IDs for one identity: %s and %s", id, results[i].ID)
		}
		if !results[i].Deduped {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh submissions for one identity, want exactly 1", fresh)
	}
	if got := len(p.List()); got != 1 {
		t.Errorf("pool holds %d jobs, want 1", got)
	}
	j := waitTerminal(t, p, id)
	if j.State != jobs.StateSucceeded {
		t.Fatalf("state %s: %s", j.State, j.Error)
	}
	if j.Output != want {
		t.Errorf("deduped job output differs from direct run")
	}
	if j.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (single execution)", j.Attempts)
	}
}

// FuzzIdentityKey smoke-checks the idempotency hash: fixed width,
// deterministic, sensitive to every identity field, insensitive to the
// execution-only fields.
func FuzzIdentityKey(f *testing.F) {
	f.Add("E8", true, uint64(7), 0, 0)
	f.Add("E12", false, uint64(0), 4, 1)
	f.Add("", false, uint64(1<<63), 2, 0)
	f.Add("A1\x00evil", true, uint64(42), 7, 3)
	f.Fuzz(func(t *testing.T, exp string, quick bool, seed uint64, mod, keep int) {
		spec := jobs.Spec{Experiment: exp, Quick: quick, Seed: seed}
		if mod > 1 {
			if keep < 0 {
				keep = -keep
			}
			spec.Rows = &jobs.RowSpec{Mod: mod, Keep: keep % mod}
		}
		key := spec.IdentityKey()
		if len(key) != 64 {
			t.Fatalf("key length %d, want 64 hex chars", len(key))
		}
		if spec.IdentityKey() != key {
			t.Fatal("IdentityKey not deterministic")
		}
		// Each identity field must perturb the key.
		alt := spec
		alt.Seed++
		if alt.IdentityKey() == key {
			t.Fatal("seed change did not change the key")
		}
		alt = spec
		alt.Quick = !alt.Quick
		if alt.IdentityKey() == key {
			t.Fatal("quick change did not change the key")
		}
		alt = spec
		alt.Experiment += "x"
		if alt.IdentityKey() == key {
			t.Fatal("experiment change did not change the key")
		}
		alt = spec
		if alt.Rows == nil {
			alt.Rows = &jobs.RowSpec{Mod: 2, Keep: 1}
		} else {
			alt.Rows = nil
		}
		if alt.IdentityKey() == key {
			t.Fatal("rows change did not change the key")
		}
		// Execution-only fields must not.
		alt = spec
		alt.Workers = 9
		alt.Timeout = time.Hour
		if alt.IdentityKey() != key {
			t.Fatal("workers/timeout leaked into the identity")
		}
	})
}
