package harness

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// renderTable captures the exact bytes cmd/localbench would emit for a table.
func renderTable(t *Table) []byte {
	var buf bytes.Buffer
	t.Render(&buf)
	return buf.Bytes()
}

// lookupDriver resolves an experiment ID or fails the test.
func lookupDriver(t *testing.T, id string) func(Config) *Table {
	t.Helper()
	f, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return f
}

// countBatches runs a driver to completion and reports how many cfg.Row
// batches it records.
func countBatches(driver func(Config) *Table, cfg Config) int {
	n := 0
	cfg.OnBatch = func(*Checkpoint) { n++ }
	cfg.Ctx = nil
	cfg.Resume = nil
	driver(cfg)
	return n
}

// TestSweepResumeByteIdentical is the core checkpoint guarantee: kill a sweep
// between row batches, persist the checkpoint through its JSON round trip,
// resume, and get byte-identical rendered output — while recomputing only the
// rows the first run never reached.
func TestSweepResumeByteIdentical(t *testing.T) {
	for _, id := range []string{"E2", "E4", "E8", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			driver := lookupDriver(t, id)
			base := Config{Quick: true, Seed: 7}
			baseline := renderTable(driver(base))
			total := countBatches(driver, base)
			if total < 2 {
				t.Fatalf("%s records %d batches; need >= 2 to interrupt", id, total)
			}

			for _, kill := range []int{1, total / 2, total - 1} {
				// Interrupted run: cancel once `kill` batches are recorded.
				ctx, cancel := context.WithCancel(context.Background())
				var saved *Checkpoint
				cfg := base
				cfg.Ctx = ctx
				cfg.OnBatch = func(ck *Checkpoint) {
					saved = ck.Clone()
					if len(saved.Batches) >= kill {
						cancel()
					}
				}
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("kill=%d: sweep finished despite cancellation", kill)
						}
						se, ok := r.(*SweepError)
						if !ok {
							t.Fatalf("kill=%d: panicked %T (%v), want *SweepError", kill, r, r)
						}
						if !errors.Is(se, ErrSweepInterrupted) || !errors.Is(se, context.Canceled) {
							t.Fatalf("kill=%d: SweepError %v does not match both sentinels", kill, se)
						}
						if se.Experiment != id || se.BatchesDone != kill {
							t.Fatalf("kill=%d: SweepError reports (%s, %d batches)",
								kill, se.Experiment, se.BatchesDone)
						}
					}()
					driver(cfg)
				}()
				if saved == nil || len(saved.Batches) != kill {
					t.Fatalf("kill=%d: checkpoint holds %d batches", kill, saved.Rows())
				}

				// Persistence round trip: the resume state survives JSON.
				enc, err := saved.Encode()
				if err != nil {
					t.Fatalf("kill=%d: encode: %v", kill, err)
				}
				restored, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("kill=%d: decode: %v", kill, err)
				}

				// Resumed run: replays the recorded batches, recomputes the rest.
				fresh := 0
				resumeCfg := base
				resumeCfg.Resume = restored
				resumeCfg.OnBatch = func(*Checkpoint) { fresh++ }
				resumed := renderTable(driver(resumeCfg))
				if !bytes.Equal(resumed, baseline) {
					t.Errorf("kill=%d: resumed output differs from uninterrupted run\n--- want ---\n%s--- got ---\n%s",
						kill, baseline, resumed)
				}
				if fresh != total-kill {
					t.Errorf("kill=%d: resume recomputed %d batches, want %d", kill, fresh, total-kill)
				}
			}
		})
	}
}

// TestSweepResumeIncompatibleIgnored ensures a checkpoint from a different
// run identity never contaminates a sweep: the resume is ignored and the
// sweep recomputes everything.
func TestSweepResumeIncompatibleIgnored(t *testing.T) {
	driver := lookupDriver(t, "E8")
	base := Config{Quick: true, Seed: 7}
	baseline := renderTable(driver(base))
	total := countBatches(driver, base)

	stale := &Checkpoint{Experiment: "E8", Seed: 8, Quick: true,
		Batches: [][][]string{{{"bogus", "row"}}}}
	fresh := 0
	cfg := base
	cfg.Resume = stale
	cfg.OnBatch = func(*Checkpoint) { fresh++ }
	got := renderTable(driver(cfg))
	if !bytes.Equal(got, baseline) {
		t.Errorf("stale checkpoint leaked into output:\n%s", got)
	}
	if fresh != total {
		t.Errorf("stale resume recomputed %d batches, want all %d", fresh, total)
	}
}

// TestCheckpointCompatible pins the identity rule.
func TestCheckpointCompatible(t *testing.T) {
	ck := &Checkpoint{Experiment: "E4", Seed: 7, Quick: true}
	cfg := Config{Quick: true, Seed: 7}
	if !ck.Compatible("E4", cfg) {
		t.Error("identical identity rejected")
	}
	if ck.Compatible("E5", cfg) {
		t.Error("experiment mismatch accepted")
	}
	if ck.Compatible("E4", Config{Quick: true, Seed: 8}) {
		t.Error("seed mismatch accepted")
	}
	if ck.Compatible("E4", Config{Quick: false, Seed: 7}) {
		t.Error("scale mismatch accepted")
	}
	var nilCk *Checkpoint
	if nilCk.Compatible("E4", cfg) {
		t.Error("nil checkpoint accepted")
	}
	if nilCk.Rows() != 0 || nilCk.Clone() != nil {
		t.Error("nil checkpoint helpers not nil-safe")
	}
}

// TestRetryContextCancellation: a dead context abandons the budget between
// attempts, and the abandonment is classified by errors.Is rather than left
// ambiguous.
func TestRetryContextCancellation(t *testing.T) {
	// Cancelled before the first attempt: zero attempts consumed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res := RetryContext(ctx, 5, func(int) error { ran = true; return nil })
	if ran || res.Attempts != 0 || res.Success {
		t.Fatalf("dead context still ran: %+v", res)
	}
	if !errors.Is(res.LastErr, context.Canceled) {
		t.Fatalf("LastErr %v does not unwrap to context.Canceled", res.LastErr)
	}

	// Cancelled between attempts: the rest of the budget is not spent.
	ctx2, cancel2 := context.WithCancel(context.Background())
	attempts := 0
	res = RetryContext(ctx2, 5, func(int) error {
		attempts++
		cancel2()
		return errors.New("transient")
	})
	if attempts != 1 || res.Attempts != 1 || res.Success {
		t.Fatalf("want exactly one attempt then abandonment, got %+v", res)
	}
	if !errors.Is(res.LastErr, context.Canceled) {
		t.Fatalf("LastErr %v does not unwrap to context.Canceled", res.LastErr)
	}

	// Deadline-based cancellation classifies as DeadlineExceeded.
	ctx3, cancel3 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel3()
	res = RetryContext(ctx3, 3, func(int) error { return errors.New("x") })
	if !errors.Is(res.LastErr, context.DeadlineExceeded) {
		t.Fatalf("LastErr %v does not unwrap to context.DeadlineExceeded", res.LastErr)
	}
}

// TestRetrySemanticsUnchanged pins the legacy wrapper: full budget on
// persistent failure, early stop on success, attempt numbering from 0.
func TestRetrySemanticsUnchanged(t *testing.T) {
	var seen []int
	res := Retry(4, func(attempt int) error {
		seen = append(seen, attempt)
		if attempt == 2 {
			return nil
		}
		return errors.New("try again")
	})
	if !res.Success || res.Attempts != 3 || res.LastErr != nil {
		t.Fatalf("unexpected result %+v", res)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("attempt numbering %v", seen)
	}
	if got := res.SuccessRate(); got != 1.0/3 {
		t.Fatalf("SuccessRate %v", got)
	}

	res = Retry(2, func(int) error { return errors.New("always") })
	if res.Success || res.Attempts != 2 || res.LastErr == nil {
		t.Fatalf("persistent failure result %+v", res)
	}
}
