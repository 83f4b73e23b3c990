package jobs

import (
	"testing"

	"locality/internal/store"
)

// TestStoreRetentionShrinksIdentityMap is the regression test for the
// idempotent-dedup leak: before Retention, a long-lived -idempotent daemon
// kept one identity entry per distinct spec forever. With retention bound
// R, both the job table and the dedup map must shrink back to R as terminal
// jobs age out.
func TestStoreRetentionShrinksIdentityMap(t *testing.T) {
	const retain = 2
	p := New(Options{Workers: 1, Idempotent: true, Retention: retain})
	defer closePoolWB(t, p)

	var ids []string
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := p.SubmitTenant("", Spec{Experiment: "E8", Quick: true, Seed: seed})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		if res.Deduped {
			t.Fatalf("distinct seed %d deduped", seed)
		}
		ids = append(ids, res.ID)
		waitStateWB(t, p, res.ID, StateSucceeded)
	}

	p.mu.Lock()
	identityLen, jobsLen, doneLen := len(p.identity), len(p.jobs), len(p.done)
	p.mu.Unlock()
	if identityLen != retain {
		t.Errorf("identity map holds %d entries after 5 terminal jobs; want %d", identityLen, retain)
	}
	if jobsLen != retain || doneLen != retain {
		t.Errorf("jobs=%d done=%d; want %d each", jobsLen, doneLen, retain)
	}

	// Evicted jobs are gone from the poll surface...
	if _, ok := p.Get(ids[0]); ok {
		t.Errorf("evicted job %s still pollable", ids[0])
	}
	// ...while the most recent ones survive and still dedup.
	last := ids[len(ids)-1]
	if _, ok := p.Get(last); !ok {
		t.Errorf("retained job %s not pollable", last)
	}
	res, err := p.SubmitTenant("", Spec{Experiment: "E8", Quick: true, Seed: 5})
	if err != nil || !res.Deduped || res.ID != last {
		t.Errorf("retained spec did not dedup: %+v, %v (want id %s)", res, err, last)
	}
	// An evicted spec recomputes instead of dedup-hitting a ghost.
	res, err = p.SubmitTenant("", Spec{Experiment: "E8", Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("resubmit evicted spec: %v", err)
	}
	if res.Deduped {
		t.Errorf("evicted spec deduped against a dropped job")
	}
	waitStateWB(t, p, res.ID, StateSucceeded)
}

// TestRetentionZeroKeepsEverything pins the default: without a bound, no
// terminal job (and no identity entry) is ever evicted.
func TestRetentionZeroKeepsEverything(t *testing.T) {
	p := New(Options{Workers: 1, Idempotent: true})
	defer closePoolWB(t, p)
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := p.SubmitTenant("", Spec{Experiment: "E8", Quick: true, Seed: seed})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitStateWB(t, p, res.ID, StateSucceeded)
	}
	p.mu.Lock()
	identityLen, jobsLen := len(p.identity), len(p.jobs)
	p.mu.Unlock()
	if identityLen != 3 || jobsLen != 3 {
		t.Errorf("identity=%d jobs=%d; want 3 each with Retention 0", identityLen, jobsLen)
	}
}

// TestRetentionNoIdentityWithoutDedup: a pool that computes identity keys
// only for its result store must not fill the dedup map — with Idempotent
// off nothing ever reads it, and nothing would ever evict it either.
func TestRetentionNoIdentityWithoutDedup(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	p := New(Options{Workers: 1, Store: st})
	defer closePoolWB(t, p)
	for seed := uint64(1); seed <= 2; seed++ {
		id, err := p.Submit(Spec{Experiment: "E8", Quick: true, Seed: seed})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitStateWB(t, p, id, StateSucceeded)
	}
	p.mu.Lock()
	identityLen := len(p.identity)
	p.mu.Unlock()
	if identityLen != 0 {
		t.Errorf("non-idempotent pool holds %d identity entries, want 0", identityLen)
	}
}

// TestSuccessPersistedBeforePublished runs an identical submit in the window
// between a success's store write and its publication, on every run: the
// job must still be running there, and the submit must already hit the
// store. Publishing first would let that submit miss and compute again.
func TestSuccessPersistedBeforePublished(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	spec := Spec{Experiment: "E8", Quick: true, Seed: 12}
	var p *Pool
	var inWindow Job
	var warm SubmitResult
	var warmErr error
	opts := Options{Workers: 1, Store: st}
	opts.persisted = func(id string) {
		inWindow, _ = p.Get(id)
		warm, warmErr = p.SubmitTenant("", spec)
	}
	p = New(opts)
	defer closePoolWB(t, p)
	id, err := p.Submit(spec)
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	cold := waitStateWB(t, p, id, StateSucceeded)
	if inWindow.State != StateRunning {
		t.Errorf("job was %s between the store write and publication, want %s", inWindow.State, StateRunning)
	}
	if warmErr != nil || !warm.Cached {
		t.Fatalf("submit between the store write and publication: %+v, %v; want a store hit", warm, warmErr)
	}
	if got, _ := p.Get(warm.ID); got.Output != cold.Output {
		t.Errorf("cached output differs from the computed one")
	}
}
