package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from the same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams from different seeds collided %d/100 times", same)
	}
}

func TestNodeStreamsReproducible(t *testing.T) {
	a := NewNode(7, 123)
	b := NewNode(7, 123)
	c := NewNode(7, 124)
	if a.Uint64() != b.Uint64() {
		t.Error("same (seed,node) produced different streams")
	}
	if a.Uint64() == c.Uint64() {
		t.Error("different nodes produced identical second outputs (suspicious)")
	}
}

// TestSeedNodeMatchesNewNode: a slab entry seeded in place, even one that
// held another stream before, yields NewNode's stream for the same
// (seed, node).
func TestSeedNodeMatchesNewNode(t *testing.T) {
	slab := make([]Source, 3)
	for i := range slab {
		slab[i] = *New(uint64(1000 + i)) // stale state to overwrite
	}
	for v := range slab {
		slab[v].SeedNode(7, v)
		want := NewNode(7, v)
		for i := 0; i < 50; i++ {
			if got, w := slab[v].Uint64(), want.Uint64(); got != w {
				t.Fatalf("node %d draw %d: slab %x, NewNode %x", v, i, got, w)
			}
		}
	}
}

func TestSplitReproducible(t *testing.T) {
	// Splitting equal-state sources with equal indices must agree.
	a, b := New(99), New(99)
	ca, cb := a.Split(5), b.Split(5)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared-ish sanity: 10 buckets, 100k draws; each bucket within
	// 5% of expectation (generous: sigma ~ 0.3%).
	r := New(12345)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: %d draws, want about %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(8)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	// p = 0.3: frequency within 3 sigma.
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestBits(t *testing.T) {
	r := New(17)
	tests := []struct{ k, wantLen int }{
		{0, 0}, {1, 1}, {7, 1}, {8, 1}, {9, 2}, {64, 8}, {65, 9}, {1000, 125},
	}
	for _, tt := range tests {
		b := r.Bits(tt.k)
		if len(b) != tt.wantLen {
			t.Errorf("Bits(%d) length = %d, want %d", tt.k, len(b), tt.wantLen)
		}
		if rem := tt.k % 8; rem != 0 && len(b) > 0 {
			if b[len(b)-1]>>rem != 0 {
				t.Errorf("Bits(%d): unused high bits set", tt.k)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUniformish(t *testing.T) {
	// Position of element 0 in Perm(4) should be near-uniform.
	r := New(2024)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		p := r.Perm(4)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
				break
			}
		}
	}
	want := float64(draws) / 4
	for pos, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("element 0 at position %d: %d, want about %.0f", pos, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
