// Package graph provides the graph substrate of the library: an immutable
// undirected multigraph-free graph type with port numbering, and the instance
// generators and structural algorithms the paper's proofs rely on (trees,
// rings, Δ-regular bipartite high-girth graphs with proper edge colorings,
// girth computation, components, peeling).
//
// Vertices are 0..N()-1. Every edge has a dense identifier 0..M()-1. The
// neighbors of a vertex are exposed through ports 0..Degree(v)-1; the port
// order is the LOCAL model's port numbering and is what the simulator routes
// messages along.
package graph

import (
	"fmt"
	"sort"
)

// Half is one endpoint's view of an incident edge: the opposite endpoint,
// the global edge identifier, and the port index of this same edge at the
// opposite endpoint (needed to route a message to the right inbox slot).
type Half struct {
	To   int // opposite endpoint
	Edge int // global edge id
	Rev  int // port of this edge at To
}

// Graph is an immutable simple undirected graph.
// Construct with a Builder or one of the generators.
type Graph struct {
	adj    [][]Half
	edges  [][2]int // edges[e] = {u, v} with u < v
	m      int
	maxDeg int
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// MaxDegree returns Δ(G), the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Ports returns the incident half-edges of v in port order.
// The returned slice is shared; callers must not modify it.
func (g *Graph) Ports(v int) []Half { return g.adj[v] }

// EdgeEndpoints returns the two endpoints of edge id e (u < v).
// It costs O(1) via the endpoint table built at construction.
func (g *Graph) EdgeEndpoints(e int) (int, int) {
	return g.edges[e][0], g.edges[e][1]
}

// Builder accumulates edges and produces a validated Graph.
type Builder struct {
	n     int
	pairs [][2]int
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) *Builder {
	b.pairs = append(b.pairs, [2]int{u, v})
	return b
}

// Build validates the accumulated edges (endpoint range, no self-loops,
// no parallel edges) and returns the Graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{adj: make([][]Half, b.n)}
	seen := make(map[[2]int]struct{}, len(b.pairs))
	g.edges = make([][2]int, 0, len(b.pairs))
	for _, p := range b.pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= b.n || v < 0 || v >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
		}
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("graph: parallel edge {%d,%d}", u, v)
		}
		seen[key] = struct{}{}
		e := g.m
		g.adj[u] = append(g.adj[u], Half{To: v, Edge: e})
		g.adj[v] = append(g.adj[v], Half{To: u, Edge: e})
		g.edges = append(g.edges, key)
		g.m++
	}
	g.fillRev()
	for v := range g.adj {
		if d := len(g.adj[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error; used by generators whose
// construction is correct by design and by tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// fillRev computes, for every half-edge, the port index of its twin.
func (g *Graph) fillRev() {
	// portOf[e] remembers the first-seen (vertex, port) of each edge; when the
	// second half is visited both Rev fields are set. O(n + m).
	type vp struct{ v, p int }
	portOf := make([]vp, g.m)
	for i := range portOf {
		portOf[i] = vp{-1, -1}
	}
	for v := range g.adj {
		for p := range g.adj[v] {
			e := g.adj[v][p].Edge
			if portOf[e].v < 0 {
				portOf[e] = vp{v, p}
				continue
			}
			w, q := portOf[e].v, portOf[e].p
			g.adj[v][p].Rev = q
			g.adj[w][q].Rev = p
		}
	}
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.N())
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// Edges returns a copy of the edge endpoint table: Edges()[e] = {u,v}, u < v.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, g.m)
	copy(out, g.edges)
	return out
}

// NeighborPort returns, for the edge at port p of v, the opposite endpoint
// and the port of that edge at the opposite endpoint. It is the routing
// primitive of the simulator kernel (it satisfies sim.Topology).
func (g *Graph) NeighborPort(v, p int) (int, int) {
	h := g.adj[v][p]
	return h.To, h.Rev
}

// ShufflePorts returns a copy of g whose adjacency lists (port orders) are
// independently permuted at every vertex. LOCAL algorithms must not depend
// on a friendly port numbering; the robustness tests run every algorithm
// under shuffled ports and require identical correctness.
func (g *Graph) ShufflePorts(r interface{ Shuffle(int, func(int, int)) }) *Graph {
	ng := &Graph{
		adj:    make([][]Half, g.N()),
		edges:  append([][2]int(nil), g.edges...),
		m:      g.m,
		maxDeg: g.maxDeg,
	}
	for v := range ng.adj {
		ng.adj[v] = append([]Half(nil), g.adj[v]...)
		r.Shuffle(len(ng.adj[v]), func(i, j int) {
			ng.adj[v][i], ng.adj[v][j] = ng.adj[v][j], ng.adj[v][i]
		})
	}
	ng.fillRev()
	return ng
}
