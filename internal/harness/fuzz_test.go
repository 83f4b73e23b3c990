package harness

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// sweepOutcome is everything a sweep shows its caller: the rendered table
// (when it returns), how it ended (a compute's panic value, the batches a
// SweepError counts, or a shard's final checkpoint), the OnBatch count and
// the last checkpoint OnBatch saw.
type sweepOutcome struct {
	rendered  []byte
	ending    string
	batches   int
	lastCheck []byte
}

// commitSweep runs a synthetic sweep of rows single-row batches under cfg.
// Row panicRow's compute panics (when it computes at all), and OnBatch
// cancels the sweep's context on its cancelAt-th call (0 never cancels).
func commitSweep(t *testing.T, cfg Config, rows, panicRow, cancelAt int) sweepOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out sweepOutcome
	cfg.Ctx = ctx
	cfg.OnBatch = func(ck *Checkpoint) {
		out.batches++
		enc, err := ck.Encode()
		if err != nil {
			t.Fatalf("encode checkpoint: %v", err)
		}
		out.lastCheck = enc
		if out.batches == cancelAt {
			cancel()
		}
	}
	func() {
		defer func() {
			switch r := recover().(type) {
			case nil:
			case *SweepError:
				out.ending = fmt.Sprintf("interrupted after %d batches", r.BatchesDone)
			case *ShardDoneError:
				enc, err := r.Checkpoint.Encode()
				if err != nil {
					t.Fatalf("encode shard checkpoint: %v", err)
				}
				out.ending = "shard done " + string(enc)
			case string:
				out.ending = "panic " + r
			default:
				panic(r)
			}
		}()
		out.rendered = renderAll(syntheticSweep(cfg, rows, func(i int, _ *Table) {
			if i == panicRow {
				panic(fmt.Sprintf("boom %d", i))
			}
		}))
	}()
	return out
}

// FuzzSweepCommits checks that a sweep's worker count changes nothing its
// caller sees. Each input picks a row count, a worker count, a sparse
// resume checkpoint, an optional shard selection, an optional panicking row
// and an optional OnBatch call that cancels the sweep; the outcome must
// equal the Workers = 1 run's. Replays and holes interleave with parallel
// computes here, so their commits must queue behind unfinished computes.
func FuzzSweepCommits(f *testing.F) {
	f.Add(uint8(10), uint8(4), uint32(0), uint32(0), uint8(0), uint8(0))
	f.Add(uint8(16), uint8(3), uint32(0b1010_0110), uint32(0), uint8(0), uint8(0))
	f.Add(uint8(12), uint8(8), uint32(0b0110_0011), uint32(0b1001_1101), uint8(0), uint8(0))
	f.Add(uint8(16), uint8(4), uint32(0b0100), uint32(0), uint8(8), uint8(0))
	f.Add(uint8(20), uint8(2), uint32(0b1_0010), uint32(0b1011_0111), uint8(0), uint8(3))
	f.Add(uint8(9), uint8(5), uint32(0b1_1000), uint32(0), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, rows, workers uint8, resumeMask, selectMask uint32, panicAt, cancelAt uint8) {
		n := 1 + int(rows)%24
		w := 1 + int(workers)%8
		// panicAt 0 panics nowhere; otherwise row panicAt-1 (which may lie
		// past the sweep).
		panicRow := int(panicAt)%32 - 1

		base := Config{}
		if resumeMask != 0 {
			ck := &Checkpoint{Experiment: "SYN"}
			for i := 0; i < n; i++ {
				var batch [][]string
				if resumeMask&(1<<i) != 0 {
					batch = [][]string{{fmt.Sprint(i), fmt.Sprint(i * i)}}
				}
				ck.Batches = append(ck.Batches, batch)
			}
			base.Resume = ck
		}
		if selectMask != 0 {
			base.RowSelect = func(i int) bool { return selectMask&(1<<i) != 0 }
		}

		seq, par := base, base
		seq.Workers, par.Workers = 1, w
		want := commitSweep(t, seq, n, panicRow, int(cancelAt)%8)
		got := commitSweep(t, par, n, panicRow, int(cancelAt)%8)
		if !bytes.Equal(got.rendered, want.rendered) {
			t.Errorf("workers=%d: table differs\n--- want ---\n%s--- got ---\n%s", w, want.rendered, got.rendered)
		}
		if got.ending != want.ending {
			t.Errorf("workers=%d: ended with %q, want %q", w, got.ending, want.ending)
		}
		if got.batches != want.batches || !bytes.Equal(got.lastCheck, want.lastCheck) {
			t.Errorf("workers=%d: %d OnBatch calls, last checkpoint %s; want %d, %s",
				w, got.batches, got.lastCheck, want.batches, want.lastCheck)
		}
	})
}
