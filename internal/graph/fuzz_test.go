package graph

import (
	"fmt"
	"testing"

	"locality/internal/rng"
)

// FuzzGenerateTree drives RandomTree across the (seed, n, maxDeg) input
// space and checks the structural invariants the experiments rely on: the
// result is a tree on exactly n vertices (n-1 edges, connected, acyclic)
// respecting the degree cap, and the construction is deterministic in the
// seed.
func FuzzGenerateTree(f *testing.F) {
	f.Add(uint64(1), 1, 2)
	f.Add(uint64(7), 2, 2)
	f.Add(uint64(42), 64, 3)
	f.Add(uint64(0), 200, 16)
	f.Fuzz(func(t *testing.T, seed uint64, n, maxDeg int) {
		// Clamp into the documented domain; out-of-domain inputs panic by
		// contract and are not interesting to fuzz.
		n = 1 + mod(n, 256)
		maxDeg = 2 + mod(maxDeg, 15)

		g := RandomTree(n, maxDeg, rng.New(seed))
		if g.N() != n {
			t.Fatalf("RandomTree(%d, %d): got %d vertices", n, maxDeg, g.N())
		}
		if g.M() != n-1 {
			t.Fatalf("RandomTree(%d, %d): got %d edges, want %d", n, maxDeg, g.M(), n-1)
		}
		if !g.IsTree() {
			t.Fatalf("RandomTree(%d, %d) seed=%d: result is not a tree", n, maxDeg, seed)
		}
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > maxDeg {
				t.Fatalf("RandomTree(%d, %d): vertex %d has degree %d", n, maxDeg, v, d)
			}
		}

		// Same seed, same tree: compare the full port structure.
		h := RandomTree(n, maxDeg, rng.New(seed))
		for v := 0; v < n; v++ {
			gp, hp := g.Ports(v), h.Ports(v)
			if len(gp) != len(hp) {
				t.Fatalf("seed %d not reproducible: vertex %d degree %d vs %d", seed, v, len(gp), len(hp))
			}
			for i := range gp {
				if gp[i] != hp[i] {
					t.Fatalf("seed %d not reproducible: vertex %d port %d: %v vs %v", seed, v, i, gp[i], hp[i])
				}
			}
		}
	})
}

// FuzzBuild compares Build with refBuild, a map-based validator that
// grows each adjacency by append, on edge lists that mix valid pairs with
// repeats, self-loops and out-of-range endpoints: the error text, or else
// every port with its Rev, Edges() and MaxDegree() must agree, and no
// vertex's ports may have spare capacity.
func FuzzBuild(f *testing.F) {
	// Byte x stands for endpoint x%(n+3) - 1, so it ranges over -1..n+1
	// and every check gets exercised; below n+3, byte x is vertex x-1.
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4, 4, 1})
	f.Add(uint8(3), []byte{1, 2, 2, 1, 1, 0})
	f.Add(uint8(3), []byte{1, 2, 1, 5, 2, 1})
	f.Add(uint8(5), []byte{3, 3, 1, 2})
	f.Add(uint8(6), []byte{1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb % 16)
		b := NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%(n+3)-1, int(data[i+1])%(n+3)-1)
		}
		g, err := b.Build()
		want, wantErr := refBuild(n, b.pairs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("pairs %v: error %v, want %v", b.pairs, err, wantErr)
		}
		if err != nil {
			if g != nil {
				t.Fatalf("pairs %v: Build returned a graph with error %v", b.pairs, err)
			}
			return
		}
		if g.N() != n || g.M() != len(want.edges) || g.MaxDegree() != want.maxDeg {
			t.Fatalf("pairs %v: n=%d m=%d Δ=%d, want %d %d %d",
				b.pairs, g.N(), g.M(), g.MaxDegree(), n, len(want.edges), want.maxDeg)
		}
		if got := fmt.Sprint(g.Edges()); got != fmt.Sprint(want.edges) {
			t.Fatalf("pairs %v: Edges() = %s, want %v", b.pairs, got, want.edges)
		}
		for v := 0; v < n; v++ {
			ports := g.Ports(v)
			if fmt.Sprint(ports) != fmt.Sprint(want.adj[v]) {
				t.Fatalf("pairs %v: Ports(%d) = %v, want %v", b.pairs, v, ports, want.adj[v])
			}
			if cap(ports) != len(ports) {
				t.Fatalf("pairs %v: Ports(%d) has capacity %d beyond its %d ports", b.pairs, v, cap(ports), len(ports))
			}
		}
	})
}

// refGraph is refBuild's result.
type refGraph struct {
	adj    [][]Half
	edges  [][2]int
	maxDeg int
}

// refBuild is the reference for Build: it validates the pairs in order,
// finding parallel edges with a map, and places each edge by append, then
// looks every Rev up in the opposite endpoint's ports.
func refBuild(n int, pairs [][2]int) (*refGraph, error) {
	g := &refGraph{adj: make([][]Half, n)}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("graph: parallel edge {%d,%d}", u, v)
		}
		seen[key] = true
		e := len(g.edges)
		g.adj[u] = append(g.adj[u], Half{To: v, Edge: e})
		g.adj[v] = append(g.adj[v], Half{To: u, Edge: e})
		g.edges = append(g.edges, key)
	}
	for v, ports := range g.adj {
		g.maxDeg = max(g.maxDeg, len(ports))
		for p, h := range ports {
			for q, back := range g.adj[h.To] {
				if back.Edge == h.Edge {
					g.adj[v][p].Rev = q
				}
			}
		}
	}
	return g, nil
}

// mod maps x into [0, m) for any int, unlike the % operator on negatives.
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
