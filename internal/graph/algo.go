package graph

// This file contains the structural algorithms the proofs and experiments
// need: BFS, connected components, exact girth (used to certify the
// high-girth lower-bound instances), and degree-threshold peeling (the
// H-partition engine behind Barenboim–Elkin tree coloring).

// BFS returns the distance from src to every vertex (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Ports(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// Components labels each vertex with a component id in [0, k) and returns
// the labels and the component count k.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	k := 0
	var stack []int
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = k
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.Ports(v) {
				if comp[h.To] < 0 {
					comp[h.To] = k
					stack = append(stack, h.To)
				}
			}
		}
		k++
	}
	return comp, k
}

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// IsTree reports whether the graph is a tree: connected with m = n-1.
func (g *Graph) IsTree() bool {
	return g.N() >= 1 && g.M() == g.N()-1 && g.IsConnected()
}

// IsForest reports whether the graph is acyclic.
func (g *Graph) IsForest() bool {
	_, k := g.Components()
	return g.M() == g.N()-k
}

// Girth returns the length of a shortest cycle, or -1 if the graph is
// acyclic. If limit > 0 the search stops early: any return value >= limit
// means only "girth at least limit" (the exact value is not determined).
// This is how the generators certify "girth >= 2t+2" cheaply.
//
// Method: from every vertex, BFS that detects the first non-tree edge
// closing a cycle; the shortest cycle through the BFS root found this way,
// minimized over roots, is the girth. O(n·m) worst case.
func (g *Graph) Girth(limit int) int {
	best := -1
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	parentEdge := make([]int, g.N())
	// One queue serves every source. The vertices it holds are the only
	// ones a search labels, so clearing their dist readies the next one.
	queue := make([]int, 0, g.N())
	for src := 0; src < g.N(); src++ {
		for _, v := range queue {
			dist[v] = -1
		}
		dist[src] = 0
		parentEdge[src] = -1
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best > 0 && 2*dist[v] >= best {
				break // no shorter cycle through src can be found deeper
			}
			for _, h := range g.Ports(v) {
				if h.Edge == parentEdge[v] {
					continue
				}
				if dist[h.To] < 0 {
					dist[h.To] = dist[v] + 1
					parentEdge[h.To] = h.Edge
					queue = append(queue, h.To)
					continue
				}
				// Non-tree edge: cycle through src of length
				// dist[v] + dist[h.To] + 1 (upper bound; exact when the
				// meeting is on shortest paths, which BFS guarantees for
				// the first detection at each level).
				c := dist[v] + dist[h.To] + 1
				if best < 0 || c < best {
					best = c
				}
			}
		}
		if limit > 0 && best > 0 && best < limit {
			// Early exit: caller only needs to know the girth is below limit.
			return best
		}
	}
	return best
}

// PeelLayers partitions the vertices into layers by repeatedly removing all
// vertices whose remaining degree is at most threshold. layer[v] is the
// 1-based round at which v was removed; the second result is the number of
// layers. For forests and threshold >= 2 every vertex is eventually removed,
// with O(log n) layers; the function panics if peeling stalls (threshold too
// small for this graph), since callers pass thresholds their theory
// guarantees.
//
// This is the centralized reference implementation; the distributed one in
// package forest runs inside the simulator and is tested against this.
func (g *Graph) PeelLayers(threshold int) ([]int, int) {
	layer := make([]int, g.N())
	deg := make([]int, g.N())
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	remaining := g.N()
	round := 0
	for remaining > 0 {
		round++
		var removed []int
		for v := 0; v < g.N(); v++ {
			if layer[v] == 0 && deg[v] <= threshold {
				removed = append(removed, v)
			}
		}
		if len(removed) == 0 {
			panic("graph: PeelLayers stalled; threshold too small for this graph")
		}
		for _, v := range removed {
			layer[v] = round
		}
		for _, v := range removed {
			for _, h := range g.Ports(v) {
				deg[h.To]--
			}
			remaining--
		}
	}
	return layer, round
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), together with the mapping old->new vertex index (-1 for
// dropped vertices) and new->old.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int, []int) {
	if len(keep) != g.N() {
		panic("graph: InducedSubgraph keep length mismatch")
	}
	oldToNew := make([]int, g.N())
	var newToOld []int
	for v := range oldToNew {
		if keep[v] {
			oldToNew[v] = len(newToOld)
			newToOld = append(newToOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	b := NewBuilder(len(newToOld))
	for _, e := range g.edges {
		if keep[e[0]] && keep[e[1]] {
			b.AddEdge(oldToNew[e[0]], oldToNew[e[1]])
		}
	}
	return b.MustBuild(), oldToNew, newToOld
}

// ComponentSizes returns the multiset of connected-component sizes of the
// subgraph induced by keep. It is the measurement primitive behind the
// graph-shattering experiments.
func (g *Graph) ComponentSizes(keep []bool) []int {
	sub, _, _ := g.InducedSubgraph(keep)
	comp, k := sub.Components()
	sizes := make([]int, k)
	for _, c := range comp {
		sizes[c]++
	}
	return sizes
}

// PowerGraph returns G^k: same vertex set, an edge {u,v} whenever
// 1 <= dist_G(u,v) <= k. Used by the speedup transforms (Theorems 6 and 8)
// and the Theorem 5 construction, which run Linial's algorithm on a power
// graph. Cost O(n · ball), so callers keep instances modest.
func (g *Graph) PowerGraph(k int) *Graph {
	if k < 1 {
		panic("graph: PowerGraph radius must be >= 1")
	}
	b := NewBuilder(g.N())
	dist := make([]int, g.N())
	for src := 0; src < g.N(); src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] == k {
				continue
			}
			for _, h := range g.Ports(v) {
				if dist[h.To] < 0 {
					dist[h.To] = dist[v] + 1
					queue = append(queue, h.To)
					if h.To > src {
						b.AddEdge(src, h.To)
					}
				}
			}
		}
		// Distance-1..k vertices discovered above include only those first
		// seen from src; all are at true distance <= k, and every vertex at
		// distance <= k is discovered by BFS, so the edge set is exact.
	}
	return b.MustBuild()
}

// BallVertices returns the vertices at distance <= t from v, in BFS order.
func (g *Graph) BallVertices(v, t int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	out := []int{v}
	for qi := 0; qi < len(out); qi++ {
		u := out[qi]
		if dist[u] == t {
			continue
		}
		for _, h := range g.Ports(u) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[u] + 1
				out = append(out, h.To)
			}
		}
	}
	return out
}
