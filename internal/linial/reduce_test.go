package linial_test

import (
	"fmt"
	"testing"

	"locality/internal/linial"
	"locality/internal/rng"
)

// mapReduce is the test-only reference for Family.Reduce: it marks every
// point of every active neighbor's set S_nc in a map, then returns the first
// point of S_own that is not marked.
func mapReduce(f linial.Family, own int, nbrs []int) int {
	if own < 0 || own >= f.K {
		panic(fmt.Sprintf("linial: color %d outside palette 0..%d", own, f.K-1))
	}
	covered := make(map[int]struct{}, (f.Delta+1)*f.Q)
	active := 0
	for _, nc := range nbrs {
		if nc < 0 {
			continue
		}
		if nc >= f.K {
			panic(fmt.Sprintf("linial: neighbor color %d outside palette 0..%d", nc, f.K-1))
		}
		if nc == own {
			panic(fmt.Sprintf("linial: neighbor shares color %d (input coloring improper)", own))
		}
		active++
		for x := 0; x < f.Q; x++ {
			covered[refPoint(f, nc, x)] = struct{}{}
		}
	}
	if active > f.Delta {
		panic(fmt.Sprintf("linial: %d constraining neighbors exceed Delta=%d", active, f.Delta))
	}
	for x := 0; x < f.Q; x++ {
		pt := refPoint(f, own, x)
		if _, bad := covered[pt]; !bad {
			return pt
		}
	}
	panic("linial: cover-free property violated (internal bug)")
}

// refPoint is the x-th point of S_c, x·Q + p_c(x), with p_c evaluated by
// Horner's rule over the base-Q digits of c, most significant first.
func refPoint(f linial.Family, c, x int) int {
	digits := make([]int, f.D+1)
	for i := 0; i <= f.D; i++ {
		digits[i] = c % f.Q
		c /= f.Q
	}
	y := 0
	for i := f.D; i >= 0; i-- {
		y = (y*x + digits[i]) % f.Q
	}
	return x*f.Q + y
}

// outcome runs reduce and reports its result, or the panic it raised.
func outcome(reduce func() int) (color int, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return reduce(), ""
}

// checkAgainstReference fails t unless Reduce and the reference return the
// same color or raise the same panic.
func checkAgainstReference(t *testing.T, fam linial.Family, own int, nbrs []int) {
	t.Helper()
	got, gotPanic := outcome(func() int { return fam.Reduce(own, nbrs) })
	want, wantPanic := outcome(func() int { return mapReduce(fam, own, nbrs) })
	if got != want || gotPanic != wantPanic {
		t.Fatalf("%+v Reduce(%d, %v) = %d (panic %q), reference %d (panic %q)",
			fam, own, nbrs, got, gotPanic, want, wantPanic)
	}
}

// randomInstance draws a proper instance: own in 0..k-1 and up to delta
// active neighbor colors different from own, some repeated, mixed with -1
// entries.
func randomInstance(r *rng.Source, k, delta int) (int, []int) {
	own := r.Intn(k)
	var nbrs []int
	active := r.Intn(delta + 1)
	for len(nbrs) < active {
		switch {
		case r.Intn(4) == 0:
			nbrs = append(nbrs, -1)
		case len(nbrs) > 0 && r.Intn(4) == 0:
			nbrs = append(nbrs, nbrs[r.Intn(len(nbrs))]) // repeat a color
		default:
			if c := r.Intn(k); c != own {
				nbrs = append(nbrs, c)
			}
		}
	}
	return own, nbrs
}

func TestReduceMatchesMapReference(t *testing.T) {
	r := rng.New(2016)
	for trial := 0; trial < 400; trial++ {
		var k, delta int
		switch trial % 4 {
		case 0: // small palette, small degree
			k, delta = 2+r.Intn(1000), 1+r.Intn(4)
		case 1: // large palette, small degree
			k, delta = 1000+r.Intn(1<<24), 1+r.Intn(6)
		case 2: // large degree, as on power graphs
			k, delta = 2+r.Intn(1<<16), 10+r.Intn(60)
		default: // the Theorem 5 shape: b-bit names, Δ = n-1
			k, delta = 1<<(8+r.Intn(12)), 47
		}
		fam := linial.NewFamily(k, delta)
		for i := 0; i < 5; i++ {
			own, nbrs := randomInstance(r, k, delta)
			checkAgainstReference(t, fam, own, nbrs)
		}
	}
}

func TestReduceDoesNotAllocate(t *testing.T) {
	r := rng.New(5)
	for _, shape := range [][2]int{{100, 3}, {1 << 20, 8}, {1 << 16, 47}} {
		fam := linial.NewFamily(shape[0], shape[1])
		own, nbrs := randomInstance(r, fam.K, fam.Delta)
		if allocs := testing.AllocsPerRun(50, func() { fam.Reduce(own, nbrs) }); allocs != 0 {
			t.Errorf("%+v: Reduce allocates %.1f times per call, want 0", fam, allocs)
		}
	}
}

// FuzzReduce compares Reduce with the map-based reference on fuzzed
// palettes, degree bounds and neighborhoods, including improper ones: both
// must return the same color or raise the same panic.
func FuzzReduce(f *testing.F) {
	f.Add(uint32(100), uint8(3), uint32(5), []byte{0, 1, 0, 2, 0, 3})
	f.Add(uint32(1<<20), uint8(47), uint32(77), []byte{1, 2, 3, 4, 255, 255, 5, 6})
	f.Add(uint32(2), uint8(1), uint32(0), []byte{0, 1, 0, 1})
	f.Add(uint32(1000), uint8(2), uint32(7), []byte{0, 7})
	f.Fuzz(func(t *testing.T, kRaw uint32, deltaRaw uint8, ownRaw uint32, nbrBytes []byte) {
		k := 1 + int(kRaw%(1<<22))
		delta := 1 + int(deltaRaw%64)
		fam := linial.NewFamily(k, delta)
		// own and the neighbors range over -1..k: one past each end of
		// the palette, to reach the validation panics.
		own := int(ownRaw%uint32(k+2)) - 1
		var nbrs []int
		for i := 0; i+1 < len(nbrBytes) && len(nbrs) <= 2*delta+2; i += 2 {
			v := int(nbrBytes[i])<<8 | int(nbrBytes[i+1])
			nbrs = append(nbrs, v%(k+2)-1)
		}
		checkAgainstReference(t, fam, own, nbrs)
	})
}
