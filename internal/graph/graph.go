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
//
// All ports live in one table, vertex after vertex: v's ports are
// ports[off[v]:off[v+1]]. The edge table and off are never written after
// construction, so ShufflePorts shares them.
type Graph struct {
	ports  []Half
	off    []int    // len N()+1
	edges  [][2]int // edges[e] = {u, v} with u < v
	maxDeg int
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// MaxDegree returns Δ(G), the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// Ports returns the incident half-edges of v in port order.
// The returned slice is shared; callers must not modify it. Its capacity
// ends with v's ports, so an append copies rather than overwrite the next
// vertex's.
func (g *Graph) Ports(v int) []Half { return g.ports[g.off[v]:g.off[v+1]:g.off[v+1]] }

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
// no parallel edges) and returns the Graph. When several pairs are invalid
// it reports the one AddEdge received first.
//
// Edges are placed in AddEdge order into the port table, so an edge's port
// at an endpoint is the number of that endpoint's ports placed before it,
// and Rev is known as the edge is placed.
func (b *Builder) Build() (*Graph, error) {
	// Range and self-loops are checked in order; the first failure ends the
	// prefix that is placed and searched for parallel edges, which can only
	// fail at an earlier pair.
	n, valid := b.n, len(b.pairs)
	var err error
	off := make([]int, n+1) // degrees at off[v+1], then prefix sums
	for i, p := range b.pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			valid, err = i, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
			break
		}
		if u == v {
			valid, err = i, fmt.Errorf("graph: self-loop at vertex %d", u)
			break
		}
		off[u+1]++
		off[v+1]++
	}
	pairs := b.pairs[:valid]
	g := &Graph{ports: make([]Half, 2*len(pairs)), off: off, edges: make([][2]int, len(pairs))}
	for v := 0; v < n; v++ {
		g.maxDeg = max(g.maxDeg, off[v+1])
		off[v+1] += off[v]
	}
	placed := make([]int, n)
	for e, p := range pairs {
		u, v := p[0], p[1]
		pu, pv := placed[u], placed[v]
		g.ports[off[u]+pu] = Half{To: v, Edge: e, Rev: pv}
		g.ports[off[v]+pv] = Half{To: u, Edge: e, Rev: pu}
		placed[u], placed[v] = pu+1, pv+1
		g.edges[e] = [2]int{min(u, v), max(u, v)}
	}
	if e := g.firstParallel(placed); e >= 0 {
		return nil, fmt.Errorf("graph: parallel edge {%d,%d}", pairs[e][0], pairs[e][1])
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// firstParallel returns the smallest id of an edge that repeats an earlier
// one, or -1. Ports list edges in id order, so at each vertex the repeat is
// the later port to a neighbour already seen; mark, which it overwrites,
// records the last vertex that saw each neighbour.
func (g *Graph) firstParallel(mark []int) int {
	for i := range mark {
		mark[i] = -1
	}
	first := -1
	for v := range mark {
		for _, h := range g.Ports(v) {
			if mark[h.To] != v {
				mark[h.To] = v
			} else if first < 0 || h.Edge < first {
				first = h.Edge
			}
		}
	}
	return first
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

// fillRev computes, for every half-edge, the port index of its twin. Build
// writes Rev as it places edges; ShufflePorts, which reorders ports after
// the fact, needs this pass.
func (g *Graph) fillRev() {
	// portOf[e] remembers the first-seen (vertex, port) of each edge; when the
	// second half is visited both Rev fields are set. O(n + m).
	type vp struct{ v, p int }
	portOf := make([]vp, g.M())
	for i := range portOf {
		portOf[i] = vp{-1, -1}
	}
	for v := 0; v < g.N(); v++ {
		ports := g.Ports(v)
		for p := range ports {
			e := ports[p].Edge
			if portOf[e].v < 0 {
				portOf[e] = vp{v, p}
				continue
			}
			w, q := portOf[e].v, portOf[e].p
			ports[p].Rev = q
			g.Ports(w)[q].Rev = p
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
	out := make([][2]int, g.M())
	copy(out, g.edges)
	return out
}

// NeighborPort returns, for the edge at port p of v, the opposite endpoint
// and the port of that edge at the opposite endpoint. It is the routing
// primitive of the simulator kernel (it satisfies sim.Topology).
func (g *Graph) NeighborPort(v, p int) (int, int) {
	h := g.Ports(v)[p]
	return h.To, h.Rev
}

// ShufflePorts returns a copy of g whose adjacency lists (port orders) are
// independently permuted at every vertex. LOCAL algorithms must not depend
// on a friendly port numbering; the robustness tests run every algorithm
// under shuffled ports and require identical correctness.
func (g *Graph) ShufflePorts(r interface{ Shuffle(int, func(int, int)) }) *Graph {
	ng := &Graph{ports: append([]Half(nil), g.ports...), off: g.off, edges: g.edges, maxDeg: g.maxDeg}
	for v := 0; v < ng.N(); v++ {
		ports := ng.Ports(v)
		r.Shuffle(len(ports), func(i, j int) {
			ports[i], ports[j] = ports[j], ports[i]
		})
	}
	ng.fillRev()
	return ng
}
