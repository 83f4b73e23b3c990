package sim

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
)

// FuzzRouteTable checks the sequential engine's flat route table on fuzzed
// trees and regular graphs, acquired from an arena that first served a
// graph of another size: the slot offsets follow the degrees, route agrees
// with NeighborPort at every (v, p), and route is an involution on the
// flat slots (the reply to a message lands back in the sender's slot).
func FuzzRouteTable(f *testing.F) {
	f.Add(uint64(1), 1, 2, false)
	f.Add(uint64(7), 64, 3, false)
	f.Add(uint64(42), 200, 16, false)
	f.Add(uint64(3), 8, 3, true)
	f.Add(uint64(9), 40, 6, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, deg int, regular bool) {
		n, deg = 1+mod(n, 256), 2+mod(deg, 15)
		r := rng.New(seed)
		var g *graph.Graph
		if regular {
			half := 1 + mod(n, 64)
			g = graph.RandomRegularBipartite(half, 1+mod(deg, half), r).Graph
		} else {
			g = graph.RandomTree(n, deg, r)
		}

		a := &Arena{}
		if _, err := a.sequential(graph.Ring(3 + mod(int(seed), 300))); err != nil {
			t.Fatal(err)
		}
		b, err := a.sequential(g)
		if err != nil {
			t.Fatal(err)
		}
		sumDeg := 0
		for v := 0; v < g.N(); v++ {
			if int(b.off[v]) != sumDeg {
				t.Fatalf("off[%d] = %d, want %d", v, b.off[v], sumDeg)
			}
			sumDeg += g.Degree(v)
		}
		if len(b.route) != sumDeg || len(b.cur) != sumDeg || len(b.next) != sumDeg {
			t.Fatalf("route/cur/next lengths %d/%d/%d, want %d", len(b.route), len(b.cur), len(b.next), sumDeg)
		}
		if len(b.curW) != 0 || len(b.nextW) != 0 || cap(b.curW) != sumDeg || cap(b.nextW) != sumDeg {
			t.Fatalf("write lists len %d/%d cap %d/%d, want empty with cap %d",
				len(b.curW), len(b.nextW), cap(b.curW), cap(b.nextW), sumDeg)
		}
		for v := 0; v < g.N(); v++ {
			for p := 0; p < g.Degree(v); p++ {
				u, rev := g.NeighborPort(v, p)
				s := int(b.off[v]) + p
				if got, want := b.route[s], b.off[u]+int32(rev); got != want {
					t.Fatalf("route[off(%d)+%d] = %d, want off(%d)+%d = %d", v, p, got, u, rev, want)
				}
			}
		}
		for s, d := range b.route {
			if back := b.route[d]; int(back) != s {
				t.Fatalf("route is not an involution: route[%d] = %d, route[%d] = %d", s, d, d, back)
			}
		}
	})
}

// mod maps x into [0, m) for any int, unlike the % operator on negatives.
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
