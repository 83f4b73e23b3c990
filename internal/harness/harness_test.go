package harness_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locality/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the tables computed by this run")

// checkGolden compares a rendered quick-scale table with its frozen copy in
// testdata/<ID>.golden, or rewrites that copy under -update. A golden diff
// means a change moved a published result and must be explained with it.
func checkGolden(t *testing.T, id string, rendered []byte) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rendered, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run go test -run Quick -update to create it)", id, err)
	}
	if !bytes.Equal(rendered, want) {
		t.Errorf("%s: table differs from %s\n--- got:\n%s--- want:\n%s", id, path, rendered, want)
	}
}

// TestAllExperimentsQuick runs the full experiment suite in quick mode and
// checks every table renders, has rows, matches its golden, and reports no
// validity failures.
func TestAllExperimentsQuick(t *testing.T) {
	tables := harness.All(harness.Config{Quick: true, Seed: 12345})
	if len(tables) != 11 {
		t.Fatalf("got %d tables, want 11", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		checkGolden(t, tbl.ID, buf.Bytes())
		out := buf.String()
		if !strings.Contains(out, tbl.ID) {
			t.Errorf("%s: render missing ID", tbl.ID)
		}
		if strings.Contains(out, " NO ") || strings.Contains(out, " NO\n") {
			t.Errorf("%s: validity failure in table:\n%s", tbl.ID, out)
		}
		var csv, md bytes.Buffer
		tbl.CSV(&csv)
		tbl.Markdown(&md)
		if csv.Len() == 0 || md.Len() == 0 {
			t.Errorf("%s: empty CSV/Markdown", tbl.ID)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e4", "E12", "a1"} {
		if _, ok := harness.ByID(id); !ok {
			t.Errorf("%s not found", id)
		}
	}
	if _, ok := harness.ByID("E99"); ok {
		t.Error("nonexistent id found")
	}
}

// TestSupplementaryExperimentsQuick runs E12, E13 and the ablations A1-A3
// and checks each rendered table against its golden.
func TestSupplementaryExperimentsQuick(t *testing.T) {
	tables := harness.AllSupplementary(harness.Config{Quick: true, Seed: 9})
	if len(tables) != 5 {
		t.Fatalf("got %d supplementary tables, want 5", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		checkGolden(t, tbl.ID, buf.Bytes())
		// A3 deliberately contains one failing row (the undersized bound)
		// and E12's whole point is visible degradation under faults;
		// E13/A1/A2 must be all-clean.
		if tbl.ID != "A3" && tbl.ID != "E12" && strings.Contains(buf.String(), " NO") {
			t.Errorf("%s: validity failure:\n%s", tbl.ID, buf.String())
		}
	}
}

func TestByIDSupplementary(t *testing.T) {
	for _, id := range []string{"A1", "a1", "e12"} {
		if _, ok := harness.ByIDSupplementary(id); !ok {
			t.Errorf("%s not found", id)
		}
	}
	if _, ok := harness.ByIDSupplementary("E1"); ok {
		t.Error("E1 should not be in the supplementary registry")
	}
}
