// Package locality_test hosts the benchmark harness: one benchmark per
// experiment of the quick suite (E1–E13, A1–A3) plus the raw kernel
// throughput. Each experiment benchmark executes the same driver that
// generates the corresponding EXPERIMENTS.md table (quick scale, so
// `go test -bench=.` completes in seconds), reports the headline metric of
// its experiment via b.ReportMetric, and fails when its allocations per op
// leave allocBudget's band. ns/op is reported, never gated: it measures the
// host as much as the code.
//
// Regenerate the full-scale tables with: go run ./cmd/localbench
package locality_test

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"locality"
	"locality/internal/harness"
)

// allocBudgetGo is the Go minor release allocBudget was measured on. The
// runtime and standard library allocate differently across releases, so a
// run under any other minor fails rather than compare counts.
const allocBudgetGo = "go1.24"

// allocTolerance is the relative band around each budget. Between runs on
// one toolchain a count moves by at most 0.04%; one extra allocation per
// sequential-engine Step moves E1 and E3 by over 40%.
const allocTolerance = 0.02

// allocBudget is each experiment's allocs/op at quick scale, seed 2016,
// under allocBudgetGo. The band is two-sided: a change that cuts
// allocations lowers its budget in the same diff, so the history of this
// literal is the suite's perf trajectory.
var allocBudget = map[string]float64{
	"E1":  139_358,
	"E2":  33_512,
	"E3":  2_061_708,
	"E4":  12_842,
	"E5":  103_640,
	"E6":  13_290,
	"E7":  76_440,
	"E8":  124_955,
	"E9":  25_062,
	"E10": 545_217,
	"E11": 16_930,
	"E12": 29_002,
	"E13": 17_499,
	"A1":  12_107,
	"A2":  47_678,
	"A3":  30_238,
}

// allocVerdict returns why allocs (per op, under the runtime.Version
// string goVersion) fails budget, or "" when it is within the band.
func allocVerdict(goVersion string, allocs, budget float64) string {
	if goVersion != allocBudgetGo && !strings.HasPrefix(goVersion, allocBudgetGo+".") {
		return fmt.Sprintf("allocation budget was measured on %s, this run is %s", allocBudgetGo, goVersion)
	}
	if dev := (allocs - budget) / budget; math.Abs(dev) > allocTolerance {
		return fmt.Sprintf("%.0f allocs/op is %+.1f%% off the budget of %.0f (band ±%g%%)",
			allocs, 100*dev, budget, 100*allocTolerance)
	}
	return ""
}

// runExperiment executes a driver b.N times, gates its allocs/op against
// allocBudget, and returns the last table.
func runExperiment(b *testing.B, id string) *harness.Table {
	b.Helper()
	driver, ok := harness.ByID(id)
	budget, budgeted := allocBudget[id]
	if !ok || !budgeted {
		b.Fatalf("experiment %s: registered %t, budgeted %t", id, ok, budgeted)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var t *harness.Table
	for i := 0; i < b.N; i++ {
		t = driver(harness.Config{Quick: true, Seed: 2016})
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	if msg := allocVerdict(runtime.Version(), allocs, budget); msg != "" {
		b.Fatalf("%s: %s", id, msg)
	}
	return t
}

// lastCell parses the cell at (last row, col) as a float metric.
func lastCell(b *testing.B, t *harness.Table, col int) float64 {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatal("no rows")
	}
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		b.Fatalf("cell %q not numeric: %v", row[col], err)
	}
	return v
}

func TestAllocVerdict(t *testing.T) {
	for _, tc := range []struct {
		name      string
		goVersion string
		allocs    float64
		pass      bool
	}{
		{"on budget", "go1.24.0", 1000, true},
		{"patch release", "go1.24.3", 1000, true},
		{"+2.1%", "go1.24.0", 1021, false},
		{"-2.1%", "go1.24.0", 979, false},
		{"other minor", "go1.25.0", 1000, false},
	} {
		if msg := allocVerdict(tc.goVersion, tc.allocs, 1000); (msg == "") != tc.pass {
			t.Errorf("%s: verdict %q, want pass=%t", tc.name, msg, tc.pass)
		}
	}
	if msg := allocVerdict("go1.25.0", 1000, 1000); !strings.Contains(msg, allocBudgetGo) || !strings.Contains(msg, "go1.25.0") {
		t.Errorf("toolchain verdict %q must name both %s and go1.25.0", msg, allocBudgetGo)
	}
}

// TestAllocBudgetCoversSuite: the budget names exactly the experiment IDs
// the two registries resolve, so no experiment runs unbudgeted and no
// budget outlives its experiment.
func TestAllocBudgetCoversSuite(t *testing.T) {
	var registered []string
	for _, prefix := range []string{"E", "A"} {
		for n := 0; n < 100; n++ {
			id := prefix + strconv.Itoa(n)
			if _, ok := harness.ByID(id); ok {
				registered = append(registered, id)
			}
		}
	}
	if len(registered) != 16 {
		t.Errorf("registries resolve %d experiments %v, want the 16 of the quick suite", len(registered), registered)
	}
	for _, id := range registered {
		if _, ok := allocBudget[id]; !ok {
			t.Errorf("experiment %s has no allocation budget", id)
		}
	}
	if len(allocBudget) != len(registered) {
		t.Errorf("budget names %d experiments, registries resolve %d", len(allocBudget), len(registered))
	}
}

// BenchmarkE1Separation reproduces the headline: randomized vs
// deterministic Δ-coloring round counts across the n sweep.
func BenchmarkE1Separation(b *testing.B) {
	t := runExperiment(b, "E1")
	b.ReportMetric(lastCell(b, t, 2), "rand-rounds")
	b.ReportMetric(lastCell(b, t, 4), "det-rounds")
}

// BenchmarkE2DeltaScaling reproduces the Δ sweep of the ColorBidding
// algorithm (Theorem 10).
func BenchmarkE2DeltaScaling(b *testing.B) {
	t := runExperiment(b, "E2")
	b.ReportMetric(lastCell(b, t, 2), "t10-rounds")
}

// BenchmarkE3Shattering reproduces the bad-component size measurements.
func BenchmarkE3Shattering(b *testing.B) {
	t := runExperiment(b, "E3")
	b.ReportMetric(lastCell(b, t, 5), "max-component")
}

// BenchmarkE4ZeroRound reproduces the Theorem 4 base case (0-round failure
// floor 1/Δ²).
func BenchmarkE4ZeroRound(b *testing.B) {
	t := runExperiment(b, "E4")
	b.ReportMetric(lastCell(b, t, 1), "minimax-failure")
}

// BenchmarkE5RandFromDet reproduces the Theorem 5 construction's failure
// rate vs the n²/2^b bound.
func BenchmarkE5RandFromDet(b *testing.B) {
	t := runExperiment(b, "E5")
	b.ReportMetric(lastCell(b, t, 4), "failure-rate")
}

// BenchmarkE6Speedup reproduces the Theorem 6 transform measurements.
func BenchmarkE6Speedup(b *testing.B) {
	t := runExperiment(b, "E6")
	b.ReportMetric(lastCell(b, t, 3), "transformed-rounds")
}

// BenchmarkE7Dichotomy reproduces the Δ=2 dichotomy (Θ(n) vs O(log* n)).
func BenchmarkE7Dichotomy(b *testing.B) {
	t := runExperiment(b, "E7")
	b.ReportMetric(lastCell(b, t, 1), "2color-rounds")
	b.ReportMetric(lastCell(b, t, 2), "3color-rounds")
}

// BenchmarkE8Derandomization reproduces the exhaustive Theorem 3 search.
func BenchmarkE8Derandomization(b *testing.B) {
	runExperiment(b, "E8")
}

// BenchmarkE9Linial reproduces the palette-trajectory/log* measurements.
func BenchmarkE9Linial(b *testing.B) {
	t := runExperiment(b, "E9")
	b.ReportMetric(lastCell(b, t, 2), "rounds")
}

// BenchmarkE10MISMatching reproduces the MIS/matching round comparisons.
func BenchmarkE10MISMatching(b *testing.B) {
	t := runExperiment(b, "E10")
	b.ReportMetric(lastCell(b, t, 2), "luby-rounds")
	b.ReportMetric(lastCell(b, t, 3), "detmis-rounds")
}

// BenchmarkE11Sinkless reproduces the sinkless-orientation convergence
// measurements.
func BenchmarkE11Sinkless(b *testing.B) {
	t := runExperiment(b, "E11")
	b.ReportMetric(lastCell(b, t, 3), "last-sink-step")
}

// BenchmarkKernelSequential measures the raw simulator throughput
// (node-steps per second) on a flood algorithm — the substrate cost under
// every experiment.
func BenchmarkKernelSequential(b *testing.B) {
	benchKernel(b, locality.EngineSequential)
}

// BenchmarkKernelConcurrent measures the goroutine-per-node engine on the
// same workload.
func BenchmarkKernelConcurrent(b *testing.B) {
	benchKernel(b, locality.EngineConcurrent)
}

func benchKernel(b *testing.B, engine locality.Engine) {
	r := locality.NewRand(1)
	g := locality.RandomTree(2048, 4, r)
	assignment := locality.ShuffledIDs(2048, r)
	factory := locality.NewLinialFactory(locality.LinialOptions{
		InitialPalette: 2048, Delta: 4,
	})
	arena := &locality.Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := locality.Run(g, locality.RunConfig{IDs: assignment, Engine: engine, Arena: arena}, factory)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds == 0 {
			b.Fatal("no rounds")
		}
	}
}

// BenchmarkE12FaultTolerance reproduces the graceful-degradation table
// (fault plans vs constraint satisfaction and retry attempts).
func BenchmarkE12FaultTolerance(b *testing.B) {
	runExperiment(b, "E12")
}

// BenchmarkE13Indistinguishability reproduces the high-girth-balls-are-trees
// check.
func BenchmarkE13Indistinguishability(b *testing.B) {
	runExperiment(b, "E13")
}

// BenchmarkA1KWvsSweep reproduces the color-reduction ablation.
func BenchmarkA1KWvsSweep(b *testing.B) {
	runExperiment(b, "A1")
}

// BenchmarkA2PeelThreshold reproduces the peeling-threshold ablation.
func BenchmarkA2PeelThreshold(b *testing.B) {
	runExperiment(b, "A2")
}

// BenchmarkA3SizeBound reproduces the Phase-2 size-bound ablation.
func BenchmarkA3SizeBound(b *testing.B) {
	runExperiment(b, "A3")
}
