package harness_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"

	"locality/internal/harness"
)

// TestPinnedTableHashes recomputes every table pinned in
// _perfbench/pins.txt ("<experiment> <seed> <sha256>" rows, the hashes the
// repo benchmark checks its sweeps against) and compares the SHA-256 of the
// rendered quick-scale table, so a change that moves a pinned table fails
// tier-1 rather than only the benchmark.
func TestPinnedTableHashes(t *testing.T) {
	f, err := os.Open("../../_perfbench/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 {
			t.Fatalf("malformed pin %q", sc.Text())
		}
		id, want := fields[0], fields[2]
		seed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("pin %q: %v", sc.Text(), err)
		}
		exp, ok := harness.ByID(id)
		if !ok {
			t.Fatalf("pin names unknown experiment %q", id)
		}
		rows++
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			exp(harness.Config{Quick: true, Seed: seed}).Render(&buf)
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s seed %d: table sha256 %s, pinned %s:\n%s", id, seed, got, want, buf.String())
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("pins.txt pins no tables")
	}
}
