package harness

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// renderAll captures every rendering of a table — the aligned text, the CSV,
// and the markdown — so byte-identity checks cover all three output paths.
func renderAll(t *Table) []byte {
	var buf bytes.Buffer
	t.Render(&buf)
	t.CSV(&buf)
	t.Markdown(&buf)
	return buf.Bytes()
}

// TestParallelByteIdentity is the tentpole guarantee: for every worker count,
// a parallel sweep renders byte-identically to the sequential one, records an
// identical checkpoint, and fires OnBatch the same number of times.
func TestParallelByteIdentity(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, id := range []string{"E2", "E4", "E8", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			driver := lookupDriver(t, id)
			base := Config{Quick: true, Seed: 7}
			baseline := renderAll(driver(base))
			var baseCk []byte
			baseBatches := 0
			{
				cfg := base
				cfg.OnBatch = func(ck *Checkpoint) {
					baseBatches++
					enc, err := ck.Encode()
					if err != nil {
						t.Fatalf("encode sequential checkpoint: %v", err)
					}
					baseCk = enc
				}
				driver(cfg)
			}

			for _, workers := range workerCounts {
				cfg := base
				cfg.Workers = workers
				var lastCk []byte
				batches := 0
				cfg.OnBatch = func(ck *Checkpoint) {
					batches++
					enc, err := ck.Encode()
					if err != nil {
						t.Fatalf("workers=%d: encode checkpoint: %v", workers, err)
					}
					lastCk = enc
				}
				got := renderAll(driver(cfg))
				if !bytes.Equal(got, baseline) {
					t.Errorf("workers=%d: output differs from sequential run\n--- want ---\n%s--- got ---\n%s",
						workers, baseline, got)
				}
				if batches != baseBatches {
					t.Errorf("workers=%d: OnBatch fired %d times, want %d", workers, batches, baseBatches)
				}
				if !bytes.Equal(lastCk, baseCk) {
					t.Errorf("workers=%d: final checkpoint differs from sequential run", workers)
				}
			}
		})
	}
}

// TestParallelKillAndResume kills a parallel sweep at a mid-sweep checkpoint
// and resumes it — at the same worker count, sequentially, and at a different
// worker count — asserting every combination reproduces the uninterrupted
// bytes. This is the checkpoint/parallelism interaction the design leans on:
// a resume checkpoint is always a strict prefix, regardless of how many
// speculative batches were in flight at the kill.
func TestParallelKillAndResume(t *testing.T) {
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
			kill := total / 2

			// Interrupted parallel run: cancel once `kill` batches committed.
			ctx, cancel := context.WithCancel(context.Background())
			var saved *Checkpoint
			cfg := base
			cfg.Workers = 4
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
						t.Fatalf("parallel sweep finished despite cancellation")
					}
					se, ok := r.(*SweepError)
					if !ok {
						t.Fatalf("panicked %T (%v), want *SweepError", r, r)
					}
					if !errors.Is(se, ErrSweepInterrupted) || !errors.Is(se, context.Canceled) {
						t.Fatalf("SweepError %v does not match both sentinels", se)
					}
					if se.Experiment != id || se.BatchesDone != kill {
						t.Fatalf("SweepError reports (%s, %d batches), want (%s, %d)",
							se.Experiment, se.BatchesDone, id, kill)
					}
				}()
				driver(cfg)
			}()
			if saved == nil || len(saved.Batches) != kill {
				t.Fatalf("checkpoint holds %d batches, want %d", len(saved.Batches), kill)
			}
			enc, err := saved.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}

			for _, resumeWorkers := range []int{1, 4, 2} {
				restored, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				fresh := 0
				resumeCfg := base
				resumeCfg.Workers = resumeWorkers
				resumeCfg.Resume = restored
				resumeCfg.OnBatch = func(*Checkpoint) { fresh++ }
				resumed := renderTable(driver(resumeCfg))
				if !bytes.Equal(resumed, baseline) {
					t.Errorf("resume workers=%d: output differs from uninterrupted run", resumeWorkers)
				}
				if fresh != total-kill {
					t.Errorf("resume workers=%d: recomputed %d batches, want %d",
						resumeWorkers, fresh, total-kill)
				}
			}
		})
	}
}

// syntheticSweep runs `rows` single-row batches through cfg.Row, with an
// optional per-index hook, and returns the table.
func syntheticSweep(cfg Config, rows int, hook func(i int, t *Table)) *Table {
	t := &Table{ID: "SYN", Title: "synthetic", Claim: "none", Columns: []string{"i", "sq"}}
	for i := 0; i < rows; i++ {
		i := i
		cfg.Row(t, func(t *Table) {
			if hook != nil {
				hook(i, t)
			}
			t.AddRow(i, i*i)
		})
	}
	cfg.Flush(t)
	return t
}

// TestParallelComputePanic asserts a panicking compute closure surfaces on the
// driver goroutine with the original panic value, that it is the
// lowest-index failure that surfaces even when later batches also finish,
// and that every row goroutine has returned by then: row 3 panics only once
// the slower row 5 has started, and row 5 must have finished when the panic
// reaches the caller.
func TestParallelComputePanic(t *testing.T) {
	slowStarted := make(chan struct{})
	var slowDone atomic.Bool
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("sweep did not re-panic the compute failure")
		}
		if s, ok := r.(string); !ok || s != "boom 3" {
			t.Fatalf("panicked %v, want the lowest-index failure \"boom 3\"", r)
		}
		if !slowDone.Load() {
			t.Fatalf("row 5's compute was still running when the panic surfaced")
		}
	}()
	syntheticSweep(Config{Workers: 4}, 16, func(i int, _ *Table) {
		switch i {
		case 3:
			<-slowStarted
			panic("boom 3")
		case 5:
			close(slowStarted)
			time.Sleep(20 * time.Millisecond)
			slowDone.Store(true)
		case 7:
			panic("boom 7")
		}
	})
}

// TestSequentialCancelInCompute pins where a Workers <= 1 sweep observes a
// cancellation raised inside a compute: the batch being computed still
// commits, and the sweep stops at the next Row. Cancelling in the last
// row's compute therefore ends the sweep normally.
func TestSequentialCancelInCompute(t *testing.T) {
	const rows = 5
	for _, workers := range []int{0, 1} {
		for _, tc := range []struct {
			at, batches int
			interrupted bool
		}{{2, 3, true}, {rows - 1, rows, false}} {
			ctx, cancel := context.WithCancel(context.Background())
			batches := 0
			cfg := Config{Workers: workers, Ctx: ctx, OnBatch: func(*Checkpoint) { batches++ }}
			var tbl *Table
			r := func() (r any) {
				defer func() { r = recover() }()
				tbl = syntheticSweep(cfg, rows, func(i int, _ *Table) {
					if i == tc.at {
						cancel()
					}
				})
				return nil
			}()
			cancel()
			if batches != tc.batches {
				t.Errorf("workers=%d cancel at %d: OnBatch fired %d times, want %d", workers, tc.at, batches, tc.batches)
			}
			se, _ := r.(*SweepError)
			switch {
			case tc.interrupted && (se == nil || se.BatchesDone != tc.batches):
				t.Errorf("workers=%d cancel at %d: ended with %v, want a SweepError after %d batches",
					workers, tc.at, r, tc.batches)
			case !tc.interrupted && (r != nil || len(tbl.Rows) != rows):
				t.Errorf("workers=%d cancel at %d: ended with %v, want a normal end with %d rows",
					workers, tc.at, r, rows)
			}
		}
	}
}

// TestParallelUnflushedRenderPanics guards the misuse mode: rendering a
// parallel sweep that was never flushed must fail loudly, not emit a partial
// table.
func TestParallelUnflushedRenderPanics(t *testing.T) {
	cfg := Config{Workers: 2}
	tbl := &Table{ID: "SYN", Columns: []string{"i"}}
	block := make(chan struct{})
	cfg.Row(tbl, func(t *Table) {
		<-block
		t.AddRow(1)
	})
	defer func() {
		close(block)
		cfg.Flush(tbl)
	}()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("Render of an unflushed parallel sweep did not panic")
		}
	}()
	var buf bytes.Buffer
	tbl.Render(&buf)
}

// TestParallelSyntheticMatchesInline cross-checks the commit queue itself on a
// cheap synthetic sweep at several worker counts, including workers > rows.
func TestParallelSyntheticMatchesInline(t *testing.T) {
	want := renderAll(syntheticSweep(Config{}, 10, nil))
	for _, workers := range []int{2, 4, 32} {
		got := renderAll(syntheticSweep(Config{Workers: workers}, 10, nil))
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: synthetic sweep differs from inline", workers)
		}
	}
}
