// Package harness drives the experiment suite: each E* function reproduces
// one quantitative claim of the paper (the DESIGN.md experiment index) and
// returns a Table whose rows come from real simulator runs. cmd/localbench
// renders the tables; bench_test.go wraps the same drivers as benchmarks;
// EXPERIMENTS.md records the outputs next to the paper's claims.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is one experiment's result: a claim, columns, measured rows, notes.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// sweep is the row-level checkpoint bookkeeping attached by the first
	// Config.Row call (see checkpoint.go); nil for tables built without
	// checkpointing.
	sweep *sweepState
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	t.Rows = append(t.Rows, formatRow(cells))
}

// formatRow stringifies one row of cells with stable-width numeric
// formatting: floats (both sizes) at 4 significant digits, durations rounded
// to 4 significant digits before rendering. Everything else goes through
// fmt.Sprint.
func formatRow(cells []any) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	return row
}

// formatFloat renders a float cell at 4 significant digits, spelling out the
// non-finite values explicitly: %g would render them as NaN/+Inf/-Inf anyway,
// but routing them through a precision-limited verb invites accidental
// reformatting — the explicit cases pin the table (and golden-file) encoding.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%.4g", v)
}

// formatDuration rounds a duration to 4 significant digits so cells like
// 1.234567891s render as the stable-width 1.235s rather than a full
// nanosecond tail.
func formatDuration(d time.Duration) string {
	if d == 0 {
		return "0s"
	}
	abs := d
	if abs < 0 {
		abs = -abs
	}
	grain := time.Duration(1)
	for abs/grain >= 10000 {
		grain *= 10
	}
	return d.Round(grain).String()
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned plain-text table. Column widths are measured in
// runes, not bytes, so multi-byte cells (Δ, ≤, →) stay aligned.
func (t *Table) Render(w io.Writer) {
	t.assertCommitted("Render")
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the rows as RFC 4180 comma-separated values (header first):
// cells containing commas, quotes or newlines are quoted, so no cell can
// silently corrupt the record structure.
func (t *Table) CSV(w io.Writer) {
	t.assertCommitted("CSV")
	cw := csv.NewWriter(w)
	cw.Write(t.Columns)
	for _, row := range t.Rows {
		cw.Write(row)
	}
	cw.Flush()
}

// Markdown writes a GitHub-flavored markdown table (for EXPERIMENTS.md).
// Pipes in headers and cells are escaped as \| so no cell can break the
// table layout.
func (t *Table) Markdown(w io.Writer) {
	t.assertCommitted("Markdown")
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "*Claim:* %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(mdEscape(t.Columns), " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(mdEscape(row), " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "*Note:* %s\n\n", n)
	}
}

// mdEscape escapes markdown table delimiters in every cell.
func mdEscape(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", `\|`)
	}
	return out
}

func pad(s string, w int) string {
	if n := utf8.RuneCountInString(s); n < w {
		return s + strings.Repeat(" ", w-n)
	}
	return s
}

// Config controls experiment scale and, for supervised runs, the sweep's
// cancellation and checkpointing hooks (all optional; the zero hooks give
// the historical one-shot behavior).
type Config struct {
	// Quick shrinks instance sizes and repetition counts so the whole
	// suite runs in seconds (used by tests and -quick benchmarking);
	// the full scale is the EXPERIMENTS.md record.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Workers, when > 1, runs up to that many of the sweep's row
	// computations at once, each on its own goroutine (see parallel.go):
	// rows are computed speculatively out of order and committed strictly
	// in row-index order, so tables, checkpoints and OnBatch calls are
	// byte-identical to a Workers<=1 run. 0 and 1 compute rows inline.
	// Workers is not part of the checkpoint identity.
	Workers int
	// Ctx, when non-nil, cancels a sweep between row batches: Config.Row
	// aborts with a panicked *SweepError as soon as the context dies.
	Ctx context.Context
	// Resume seeds Config.Row replay from a previously recorded
	// checkpoint. Incompatible checkpoints (different experiment, seed or
	// scale) are ignored and the sweep starts fresh. The checkpoint may be
	// sparse (nil batches are holes, see RowSelect): recorded batches are
	// replayed, holes are recomputed in place.
	Resume *Checkpoint
	// RowSelect, when non-nil, runs the sweep in sharded mode: only batch
	// indices for which RowSelect returns true are computed; the rest are
	// recorded as nil holes in the checkpoint (unless Resume already holds
	// them, in which case they are replayed). A sharded sweep never reaches
	// the driver's cross-row note code: Config.Flush ends it by panicking a
	// *ShardDoneError carrying the final sparse checkpoint, which
	// supervision layers treat as success. Coordinators merge shard
	// checkpoints with Checkpoint.Adopt and rebuild the full table by
	// re-running the driver with Resume set to the merged checkpoint.
	RowSelect func(batch int) bool
	// OnBatch is invoked after each freshly computed row batch with the
	// checkpoint accumulated so far, for persistence. The pointee is owned
	// by the sweep and mutated as it progresses: persist synchronously or
	// Clone. Replayed batches do not re-fire it.
	OnBatch func(*Checkpoint)
	// Obs, when non-nil, receives the sweep's telemetry (per-round simulator
	// stats, per-batch commit progress). Like OnBatch it observes — never
	// influences — the sweep: tables, checkpoints and OnBatch sequences are
	// byte-identical with or without it (see observe.go).
	Obs Observer
}

// sizes picks an n-sweep.
func (c Config) sizes(quick, full []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// trials picks a repetition count.
func (c Config) trials(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}
