package graph

import (
	"fmt"

	"locality/internal/rng"
)

// This file implements the instance generators. Every family a proof in the
// paper runs on has a generator here:
//
//   - trees (random bounded-degree, uniform Prüfer, complete q-ary, paths,
//     stars, caterpillars) for the Δ-coloring results (§IV, §VI);
//   - rings for the Δ=2 dichotomy (Theorem 7) and Linial's log* bounds;
//   - Δ-regular bipartite graphs with a built-in proper Δ-edge coloring and
//     certified girth, the hard instances of Theorems 4 and 5;
//   - sparse bounded-degree random graphs for the toolbox experiments.
//
// Colors are 1-based throughout the library (0 means "uncolored").

// Path returns the path on n >= 1 vertices 0-1-2-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// Ring returns the cycle on n >= 3 vertices.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Ring needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.MustBuild()
}

// Star returns the star with one center (vertex 0) and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

// CompleteKAry returns the complete k-ary tree of the given depth
// (depth 0 = a single root). Interior vertices have degree k+1, so
// Δ = k+1 for depth >= 2.
func CompleteKAry(k, depth int) *Graph {
	if k < 1 || depth < 0 {
		panic(fmt.Sprintf("graph: CompleteKAry(k=%d, depth=%d) invalid", k, depth))
	}
	// Count vertices: 1 + k + k^2 + ... + k^depth.
	n := 1
	width := 1
	for d := 0; d < depth; d++ {
		width *= k
		n += width
	}
	b := NewBuilder(n)
	next := 1
	// BFS order construction: vertices 0..n-1 level by level.
	for v := 0; v < n && next < n; v++ {
		for c := 0; c < k && next < n; c++ {
			b.AddEdge(v, next)
			next++
		}
	}
	return b.MustBuild()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs leaves attached to every spine vertex. Δ = legs + 2 on interior
// spine vertices.
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic(fmt.Sprintf("graph: Caterpillar(spine=%d, legs=%d) invalid", spine, legs))
	}
	n := spine + spine*legs
	b := NewBuilder(n)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(i, next)
			next++
		}
	}
	return b.MustBuild()
}

// RandomTree returns a random tree on n vertices with maximum degree at most
// maxDeg, built by preferential-free random attachment: vertex i attaches to
// a uniformly random earlier vertex that still has residual degree. This is
// the workhorse instance family of the Δ-coloring experiments: for
// maxDeg = Δ it produces trees that actually exercise the Δ palette.
func RandomTree(n, maxDeg int, r *rng.Source) *Graph {
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	if n >= 2 && maxDeg < 2 {
		panic("graph: RandomTree needs maxDeg >= 2 for n >= 2")
	}
	b := NewBuilder(n)
	deg := make([]int, n)
	// Candidates with residual capacity; compacted lazily.
	candidates := make([]int, 0, n)
	if n > 0 {
		candidates = append(candidates, 0)
	}
	for v := 1; v < n; v++ {
		// Pick a uniformly random candidate with residual capacity.
		for {
			i := r.Intn(len(candidates))
			u := candidates[i]
			if deg[u] >= maxDeg {
				// Swap-remove exhausted candidate and retry.
				candidates[i] = candidates[len(candidates)-1]
				candidates = candidates[:len(candidates)-1]
				continue
			}
			b.AddEdge(u, v)
			deg[u]++
			deg[v]++
			if deg[u] >= maxDeg {
				candidates[i] = candidates[len(candidates)-1]
				candidates = candidates[:len(candidates)-1]
			}
			break
		}
		if deg[v] < maxDeg {
			candidates = append(candidates, v)
		}
	}
	return b.MustBuild()
}

// UniformTree returns a uniformly random labeled tree on n >= 1 vertices via
// Prüfer sequence decoding. Expected maximum degree is Θ(log n / log log n).
func UniformTree(n int, r *rng.Source) *Graph {
	if n < 1 {
		panic("graph: UniformTree needs n >= 1")
	}
	b := NewBuilder(n)
	if n == 1 {
		return b.MustBuild()
	}
	if n == 2 {
		return b.AddEdge(0, 1).MustBuild()
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = r.Intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, s := range seq {
		deg[s]++
	}
	// Standard O(n log n)-free decode with a moving pointer over leaves.
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, s := range seq {
		b.AddEdge(leaf, s)
		deg[s]--
		if deg[s] == 1 && s < ptr {
			leaf = s
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Join the last two leaves; one of them is vertex n-1.
	b.AddEdge(leaf, n-1)
	return b.MustBuild()
}

// EdgeColoredGraph bundles a graph with a proper edge coloring: Colors[e] in
// 1..NumColors for every edge id e, and no two edges sharing an endpoint
// have equal colors. This is the input format of the sinkless problems.
type EdgeColoredGraph struct {
	*Graph
	Colors    []int
	NumColors int
}

// VerifyEdgeColoring checks the properness invariant; generators call it and
// tests call it on mutated inputs.
func (g *EdgeColoredGraph) VerifyEdgeColoring() error {
	if len(g.Colors) != g.M() {
		return fmt.Errorf("graph: edge color table has %d entries for %d edges", len(g.Colors), g.M())
	}
	// seen[c] is the last vertex that met color c and the edge it met it on.
	type stamp struct{ v, edge int }
	seen := make([]stamp, max(g.NumColors, 0)+1)
	for c := range seen {
		seen[c].v = -1
	}
	for v := 0; v < g.N(); v++ {
		for _, h := range g.Ports(v) {
			c := g.Colors[h.Edge]
			if c < 1 || c > g.NumColors {
				return fmt.Errorf("graph: edge %d has color %d outside 1..%d", h.Edge, c, g.NumColors)
			}
			if seen[c].v == v {
				return fmt.Errorf("graph: vertex %d has two incident edges (%d, %d) with color %d", v, seen[c].edge, h.Edge, c)
			}
			seen[c] = stamp{v, h.Edge}
		}
	}
	return nil
}

// RandomRegularBipartite returns a d-regular bipartite graph on 2*half
// vertices (left part 0..half-1, right part half..2*half-1) sampled from the
// permutation model: the union of d uniformly random perfect matchings, with
// matching index c giving edge color c+1 — a proper d-edge coloring for
// free, exactly as the lower-bound instances of Theorem 4 require.
// Each matching repairs its parallel edges by random transpositions; one
// that exhausts its repair budget is completed along augmenting paths.
func RandomRegularBipartite(half, d int, r *rng.Source) *EdgeColoredGraph {
	if half < 1 || d < 1 || d > half {
		panic(fmt.Sprintf("graph: RandomRegularBipartite(half=%d, d=%d) invalid", half, d))
	}
	// Sample the d matchings sequentially; each starts as a uniform random
	// permutation whose conflicts with already-placed edges are repaired by
	// random transpositions (whole-tuple rejection would succeed with
	// probability only about e^{-d(d-1)/2}). The repair can stall on
	// near-complete graphs, hence the budget and completeMatching.
	//
	// cols holds the matchings back to back, matching c joining row i to
	// column cols[c*half+i]. The columns a row already uses are its entries
	// in the matchings placed before, at most d, so a scan replaces a set.
	cols := make([]int, d*half)
	for c := 0; c < d; c++ {
		perm, placed := cols[c*half:(c+1)*half], cols[:c*half]
		copy(perm, r.Perm(half))
		// Rows before from are conflict-free; a transposition changes only
		// rows conflict and j, so the scan resumes at the smaller of them.
		from := 0
		for attempt := 0; ; attempt++ {
			if attempt > 1000*(half+d) {
				completeMatching(perm, placed)
				break
			}
			conflict := -1
			for i := from; i < half; i++ {
				if taken(placed, half, i, perm[i]) {
					conflict = i
					break
				}
			}
			if conflict < 0 {
				break
			}
			j := r.Intn(half)
			perm[conflict], perm[j] = perm[j], perm[conflict]
			from = min(conflict, j)
		}
	}
	pairs := make([][2]int, 0, d*half)
	colors := make([]int, 0, d*half)
	for c := 0; c < d; c++ {
		for i := 0; i < half; i++ {
			pairs = append(pairs, [2]int{i, half + cols[c*half+i]})
			colors = append(colors, c+1)
		}
	}
	b := &Builder{n: 2 * half, pairs: pairs}
	g := &EdgeColoredGraph{Graph: b.MustBuild(), Colors: colors, NumColors: d}
	if err := g.VerifyEdgeColoring(); err != nil {
		panic(fmt.Sprintf("graph: permutation model produced improper coloring: %v", err))
	}
	return g
}

// taken reports whether one of the matchings in placed, each half entries
// long, joins row i to column j.
func taken(placed []int, half, i, j int) bool {
	for k := i; k < len(placed); k += half {
		if placed[k] == j {
			return true
		}
	}
	return false
}

// completeMatching makes perm a perfect matching that avoids the edges of
// the matchings in placed: rows whose edge is unused keep it, and every
// other row is matched along an augmenting path (Kuhn's algorithm). After
// c matchings the unused edges form a (half-c)-regular bipartite graph,
// which by Hall's theorem has a perfect matching, so the search always
// succeeds while c < half.
func completeMatching(perm, placed []int) {
	half := len(perm)
	owner := make([]int, half) // owner[j] is the row matched to column j, or -1
	for j := range owner {
		owner[j] = -1
	}
	var unmatched []int
	for i, j := range perm {
		if taken(placed, half, i, j) {
			unmatched = append(unmatched, i)
			continue
		}
		owner[j] = i
	}
	var seen []bool
	var augment func(i int) bool
	augment = func(i int) bool {
		for j := 0; j < half; j++ {
			if taken(placed, half, i, j) || seen[j] {
				continue
			}
			seen[j] = true
			if owner[j] < 0 || augment(owner[j]) {
				perm[i], owner[j] = j, i
				return true
			}
		}
		return false
	}
	for _, i := range unmatched {
		seen = make([]bool, half)
		if !augment(i) {
			panic("graph: RandomRegularBipartite found no perfect matching (internal bug)")
		}
	}
}

// HighGirthRegular samples d-regular bipartite edge-colored graphs from the
// permutation model until one with girth >= minGirth is found (or attempts
// are exhausted, in which case it returns an error). The permutation model
// has girth Θ(log_d n) with constant probability once minGirth is below that
// bound, so callers should request girths they can afford.
func HighGirthRegular(half, d, minGirth, attempts int, r *rng.Source) (*EdgeColoredGraph, error) {
	for i := 0; i < attempts; i++ {
		g := RandomRegularBipartite(half, d, r)
		girth := g.Girth(minGirth)
		if girth < 0 || girth >= minGirth {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no girth-%d %d-regular graph on %d+%d vertices found in %d attempts",
		minGirth, d, half, half, attempts)
}

// RandomBoundedDegree returns a random simple graph on n vertices with m
// edges and maximum degree at most maxDeg, by rejection sampling of edges.
// It panics if the target is infeasible (m > n*maxDeg/2).
func RandomBoundedDegree(n, m, maxDeg int, r *rng.Source) *Graph {
	if m > n*maxDeg/2 {
		panic(fmt.Sprintf("graph: RandomBoundedDegree infeasible: m=%d > n*maxDeg/2=%d", m, n*maxDeg/2))
	}
	deg := make([]int, n)
	// The edges placed so far, as per-vertex linked lists of half-edges:
	// half k (edge k/2) leads to to[k], and next[k] is the vertex's previous
	// half, -1 at the end. head[u] is u's latest half, so a duplicate check
	// scans at most maxDeg entries.
	head := make([]int, n)
	for u := range head {
		head[u] = -1
	}
	to := make([]int, 0, 2*m)
	next := make([]int, 0, 2*m)
	b := &Builder{n: n, pairs: make([][2]int, 0, m)}
	added := 0
	stall := 0
	for added < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || deg[u] >= maxDeg || deg[v] >= maxDeg {
			stall++
			if stall > 1000*(m+1) {
				panic("graph: RandomBoundedDegree stalled; parameters too tight")
			}
			continue
		}
		dup := false
		for k := head[u]; k >= 0 && !dup; k = next[k] {
			dup = to[k] == v
		}
		if dup {
			stall++
			continue
		}
		to = append(to, v, u)
		next = append(next, head[u], head[v])
		head[u], head[v] = len(to)-2, len(to)-1
		b.AddEdge(u, v)
		deg[u]++
		deg[v]++
		added++
		stall = 0
	}
	return b.MustBuild()
}

// Grid returns the w x h grid graph (Δ <= 4).
func Grid(w, h int) *Graph {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("graph: Grid(%d,%d) invalid", w, h))
	}
	b := NewBuilder(w * h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(at(x, y), at(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(at(x, y), at(x, y+1))
			}
		}
	}
	return b.MustBuild()
}
