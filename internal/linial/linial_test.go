package linial_test

import (
	"strings"
	"testing"
	"testing/quick"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
)

func TestFamilyParameters(t *testing.T) {
	f := linial.NewFamily(1000, 3)
	if f.Q <= f.Delta*f.D {
		t.Errorf("q=%d not > Δ·d=%d", f.Q, f.Delta*f.D)
	}
	if mathx.PowInt(f.Q, f.D+1) < f.K {
		t.Errorf("q^(d+1)=%d < k=%d", mathx.PowInt(f.Q, f.D+1), f.K)
	}
	if !mathx.IsPrime(f.Q) {
		t.Errorf("q=%d not prime", f.Q)
	}
}

func TestReduceProperProperty(t *testing.T) {
	// For random proper local colorings, the reduced colors of adjacent
	// vertices must differ: simulate a center with <= Δ neighbors, reduce
	// all of them against their own (unknown to us) neighborhoods is not
	// possible locally, so instead check the defining property directly:
	// Reduce(own, nbrs) never lands in any S_nc... equivalently, reducing
	// both endpoints of an edge with consistent views yields different
	// colors. We check the stronger cover-free guarantee: the new color of
	// own is never a point of any neighbor's set, so if the neighbor keeps
	// any point of its own set, they differ. Here: check new color differs
	// from Reduce(nc, [own]) for each nc.
	f := func(seed uint64, rawK uint16, rawD uint8) bool {
		k := int(rawK%500) + 10
		delta := int(rawD%5) + 1
		fam := linial.NewFamily(k, delta)
		r := rng.New(seed)
		own := r.Intn(k)
		nbrs := make([]int, 0, delta)
		for len(nbrs) < delta {
			c := r.Intn(k)
			if c == own {
				continue
			}
			nbrs = append(nbrs, c)
		}
		newOwn := fam.Reduce(own, nbrs)
		if newOwn < 0 || newOwn >= fam.PaletteSize() {
			return false
		}
		for _, nc := range nbrs {
			// Whatever color nc picks (it sees own among its neighbors),
			// it must differ from newOwn.
			newNbr := fam.Reduce(nc, []int{own})
			if newNbr == newOwn {
				// Only a violation if newOwn is in S_nc; Reduce guarantees
				// newOwn not in S_nc, so equality is impossible.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReducePanicsOnImproperInput(t *testing.T) {
	fam := linial.NewFamily(100, 3)
	cases := []struct {
		name string
		own  int
		nbrs []int
		want string
	}{
		{"own outside palette", 100, []int{1}, "color 100 outside palette"},
		{"neighbor outside palette", 5, []int{1, 100}, "neighbor color 100 outside palette"},
		{"shared color", 5, []int{1, 5}, "neighbor shares color 5"},
		{"too many neighbors", 5, []int{1, -1, 2, 3, 4}, "4 constraining neighbors exceed Delta=3"},
		// Validation runs before any point is scanned, in neighbor order.
		{"first offender wins", 5, []int{1, 2, 3, 4, 5}, "neighbor shares color 5"},
	}
	for _, c := range cases {
		_, msg := outcome(func() int { return fam.Reduce(c.own, c.nbrs) })
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: Reduce(%d, %v) panicked with %q, want %q", c.name, c.own, c.nbrs, msg, c.want)
		}
		checkAgainstReference(t, fam, c.own, c.nbrs)
	}
}

func TestScheduleConvergesLogStar(t *testing.T) {
	tests := []struct {
		k0, delta int
		maxRounds int
	}{
		{1 << 10, 3, 6},
		{1 << 20, 3, 7},
		{1 << 40, 3, 8},
		{1 << 20, 10, 7},
		{1 << 60, 4, 9},
	}
	for _, tt := range tests {
		sched := linial.Schedule(tt.k0, tt.delta)
		if len(sched) > tt.maxRounds {
			t.Errorf("Schedule(%d, %d) has %d rounds, want <= %d",
				tt.k0, tt.delta, len(sched), tt.maxRounds)
		}
		// Palette strictly decreases along the schedule.
		k := tt.k0
		for i, f := range sched {
			if f.K != k {
				t.Errorf("schedule step %d expects palette %d, chain has %d", i, f.K, k)
			}
			if f.PaletteSize() >= k {
				t.Errorf("schedule step %d does not shrink: %d -> %d", i, k, f.PaletteSize())
			}
			k = f.PaletteSize()
		}
	}
}

func TestFixedPointIsODeltaSquared(t *testing.T) {
	for _, delta := range []int{2, 3, 5, 8, 16, 32} {
		fp := linial.FixedPoint(1<<30, delta)
		// β·Δ² with a modest β: the polynomial construction gives roughly
		// (2Δ)² = 4Δ² at the fixed point; allow β up to 30 for tiny Δ
		// (prime gaps dominate there).
		if fp > 30*delta*delta+30 {
			t.Errorf("fixed point for Δ=%d is %d, not O(Δ²)", delta, fp)
		}
	}
}

func TestMachineProducesProperColoring(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 8; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.RandomTree(120, 5, r)
		case 1:
			g = graph.RandomBoundedDegree(100, 160, 6, r)
		default:
			g = graph.Ring(64)
		}
		n := g.N()
		assignment := ids.Shuffled(n, r)
		opt := linial.Options{InitialPalette: n, Delta: g.MaxDegree()}
		res, err := sim.Run(g, sim.Config{IDs: assignment}, linial.NewFactory(opt))
		if err != nil {
			t.Fatal(err)
		}
		colors := sim.IntOutputs(res)
		fp := linial.FixedPoint(n, g.MaxDegree())
		if err := lcl.Coloring(fp).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Rounds != linial.Rounds(opt) {
			t.Errorf("trial %d: rounds %d, predicted %d", trial, res.Rounds, linial.Rounds(opt))
		}
	}
}

func TestMachineSweepToDeltaPlusOne(t *testing.T) {
	r := rng.New(23)
	g := graph.RandomBoundedDegree(80, 120, 4, r)
	delta := g.MaxDegree()
	opt := linial.Options{InitialPalette: 80, Delta: delta, Target: delta + 1}
	res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(80, r)}, linial.NewFactory(opt))
	if err != nil {
		t.Fatal(err)
	}
	colors := sim.IntOutputs(res)
	if err := lcl.Coloring(delta+1).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
		t.Fatal(err)
	}
}

func TestMachineRoundsGrowAsLogStar(t *testing.T) {
	// Doubling n many times should increase the round count only via the
	// log* schedule length: tiny, slowly growing.
	delta := 3
	r := rng.New(31)
	prev := 0
	for _, n := range []int{16, 256, 4096, 65536} {
		g := graph.RandomTree(n, delta, r)
		opt := linial.Options{InitialPalette: n, Delta: delta}
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(n, r)}, linial.NewFactory(opt))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > 8 {
			t.Errorf("n=%d: %d rounds, want O(log* n) (<= 8)", n, res.Rounds)
		}
		if res.Rounds < prev {
			// Rounds may plateau but should not decrease much; tolerate
			// equal or +-1 jitter from prime gaps.
			if prev-res.Rounds > 1 {
				t.Errorf("n=%d: rounds dropped from %d to %d", n, prev, res.Rounds)
			}
		}
		prev = res.Rounds
	}
}

func TestRoundsPrediction(t *testing.T) {
	opt := linial.Options{InitialPalette: 1 << 16, Delta: 3, Target: 4}
	want := len(linial.Schedule(1<<16, 3)) + linial.FixedPoint(1<<16, 3) - 4
	if got := linial.Rounds(opt); got != want {
		t.Errorf("Rounds = %d, want %d", got, want)
	}
	// NewFactoryRounds reports the same count from its one plan build.
	for _, o := range []linial.Options{
		opt,
		{InitialPalette: 1 << 16, Delta: 3},
		{InitialPalette: 1 << 20, Delta: 5, Target: 6, KW: true},
		{InitialPalette: 2, Delta: 1, Target: 2},
	} {
		if _, got := linial.NewFactoryRounds(o); got != linial.Rounds(o) {
			t.Errorf("%+v: NewFactoryRounds reports %d rounds, Rounds %d", o, got, linial.Rounds(o))
		}
	}
}

func TestKWPlanShape(t *testing.T) {
	plan := linial.NewKWPlan(1000, 10)
	// Palette must halve-ish each pass and the total rounds must be far
	// below the naive 990-round sweep.
	if plan.Rounds() >= 500 {
		t.Errorf("KW rounds = %d, want far below the naive sweep", plan.Rounds())
	}
	prev := 1 << 30
	for _, k := range plan.Palettes {
		if k >= prev {
			t.Errorf("palette did not shrink: %v", plan.Palettes)
		}
		prev = k
	}
}

func TestMachineKWSweep(t *testing.T) {
	r := rng.New(29)
	for _, delta := range []int{4, 8, 16} {
		g := graph.RandomTree(400, delta, r)
		d := g.MaxDegree()
		opt := linial.Options{InitialPalette: 400, Delta: d, Target: d + 1, KW: true}
		res, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(400, r), MaxRounds: 10000}, linial.NewFactory(opt))
		if err != nil {
			t.Fatal(err)
		}
		colors := sim.IntOutputs(res)
		if err := lcl.Coloring(d+1).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)); err != nil {
			t.Fatalf("Δ=%d: %v", delta, err)
		}
		if res.Rounds != linial.Rounds(opt) {
			t.Errorf("Δ=%d: rounds %d, predicted %d", delta, res.Rounds, linial.Rounds(opt))
		}
		// KW must beat the naive sweep for larger Δ.
		naive := linial.Rounds(linial.Options{InitialPalette: 400, Delta: d, Target: d + 1})
		if d >= 8 && res.Rounds >= naive {
			t.Errorf("Δ=%d: KW rounds %d not below naive %d", d, res.Rounds, naive)
		}
	}
}
