package graph

import (
	"testing"
	"testing/quick"

	"locality/internal/rng"
)

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		ok    bool
	}{
		{"empty", 0, nil, true},
		{"single edge", 2, [][2]int{{0, 1}}, true},
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, true},
		{"self loop", 2, [][2]int{{0, 0}}, false},
		{"out of range", 2, [][2]int{{0, 2}}, false},
		{"negative", 2, [][2]int{{-1, 0}}, false},
		{"parallel", 3, [][2]int{{0, 1}, {1, 0}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(tt.n)
			for _, e := range tt.edges {
				b.AddEdge(e[0], e[1])
			}
			_, err := b.Build()
			if (err == nil) != tt.ok {
				t.Errorf("Build() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// TestBuildErrorPrecedence checks that Build reports the invalid pair
// AddEdge received first, whichever check it fails.
func TestBuildErrorPrecedence(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  string
	}{
		{"parallel before out of range", 3, [][2]int{{0, 1}, {1, 0}, {0, 5}}, "graph: parallel edge {1,0}"},
		{"out of range before parallel", 3, [][2]int{{0, 1}, {0, 5}, {1, 0}}, "graph: edge {0,5} out of range [0,3)"},
		{"self-loop first", 10, [][2]int{{2, 2}, {0, 10}, {0, 1}, {1, 0}}, "graph: self-loop at vertex 2"},
		{"parallel before self-loop", 3, [][2]int{{0, 1}, {0, 1}, {1, 1}}, "graph: parallel edge {0,1}"},
		{"negative endpoint", 2, [][2]int{{-1, 0}, {0, 0}}, "graph: edge {-1,0} out of range [0,2)"},
		{"first repeat at a later vertex", 4, [][2]int{{0, 1}, {2, 3}, {3, 2}, {1, 0}}, "graph: parallel edge {3,2}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(tt.n)
			for _, e := range tt.edges {
				b.AddEdge(e[0], e[1])
			}
			g, err := b.Build()
			if err == nil || err.Error() != tt.want || g != nil {
				t.Errorf("Build() = %v, %v; want nil, %q", g, err, tt.want)
			}
		})
	}
}

func TestPortsAndRev(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).AddEdge(1, 2).MustBuild()
	if g.N() != 4 || g.M() != 4 || g.MaxDegree() != 3 {
		t.Fatalf("basic counts wrong: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	// Every half-edge's Rev must point back to itself.
	for v := 0; v < g.N(); v++ {
		for p, h := range g.Ports(v) {
			back := g.Ports(h.To)[h.Rev]
			if back.To != v || back.Rev != p || back.Edge != h.Edge {
				t.Errorf("Rev inconsistent at v=%d port=%d: %+v -> %+v", v, p, h, back)
			}
		}
	}
}

func TestRevConsistencyProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%50) + 2
		r := rng.New(seed)
		g := UniformTree(n, r)
		for v := 0; v < g.N(); v++ {
			for p, h := range g.Ports(v) {
				back := g.Ports(h.To)[h.Rev]
				if back.To != v || back.Rev != p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := NewBuilder(3).AddEdge(2, 0).AddEdge(1, 2).MustBuild()
	u, v := g.EdgeEndpoints(0)
	if u != 0 || v != 2 {
		t.Errorf("edge 0 endpoints = (%d,%d), want (0,2)", u, v)
	}
	u, v = g.EdgeEndpoints(1)
	if u != 1 || v != 2 {
		t.Errorf("edge 1 endpoints = (%d,%d), want (1,2)", u, v)
	}
}

func TestBFS(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	// Disconnected piece unreachable.
	g2 := NewBuilder(3).AddEdge(0, 1).MustBuild()
	if d := g2.BFS(0); d[2] != -1 {
		t.Errorf("unreachable vertex distance = %d, want -1", d[2])
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder(6).AddEdge(0, 1).AddEdge(2, 3).AddEdge(3, 4).MustBuild()
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Errorf("components grouped wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[0] == comp[5] || comp[2] == comp[5] {
		t.Errorf("distinct components merged: %v", comp)
	}
}

func TestTreeForestPredicates(t *testing.T) {
	if !Path(7).IsTree() || !Path(7).IsForest() {
		t.Error("path should be a tree and a forest")
	}
	if Ring(5).IsTree() || Ring(5).IsForest() {
		t.Error("ring is not a tree/forest")
	}
	twoTrees := NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	if twoTrees.IsTree() {
		t.Error("disconnected forest is not a tree")
	}
	if !twoTrees.IsForest() {
		t.Error("two trees form a forest")
	}
}

func TestGirth(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"triangle", Ring(3), 3},
		{"C5", Ring(5), 5},
		{"C10", Ring(10), 10},
		{"tree", Path(8), -1},
		{"grid", Grid(3, 3), 4},
		{"K4", NewBuilder(4).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).
			AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 3).MustBuild(), 3},
		{"theta", NewBuilder(6).
			// Two vertices joined by paths of lengths 2, 3, 2: girth 2+2=4.
			AddEdge(0, 2).AddEdge(2, 1).
			AddEdge(0, 3).AddEdge(3, 4).AddEdge(4, 1).
			AddEdge(0, 5).AddEdge(5, 1).MustBuild(), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Girth(0); got != tt.want {
				t.Errorf("Girth = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestGirthLimit(t *testing.T) {
	// With a limit, either the true small girth is reported, or a value
	// >= limit (meaning "at least limit").
	g := Ring(20)
	if got := g.Girth(5); got < 5 {
		t.Errorf("Girth(limit=5) on C20 = %d, want >= 5", got)
	}
	tri := Ring(3)
	if got := tri.Girth(10); got != 3 {
		t.Errorf("Girth(limit=10) on C3 = %d, want 3", got)
	}
}

func TestPeelLayers(t *testing.T) {
	// A path peels completely in ceil-log-ish layers with threshold >= 2;
	// with threshold 1 only leaves peel each round: n/2 rounds on a path.
	g := Path(8)
	layer, rounds := g.PeelLayers(2)
	if rounds != 1 {
		t.Errorf("path with threshold 2 should peel in 1 round, got %d", rounds)
	}
	for v, l := range layer {
		if l != 1 {
			t.Errorf("layer[%d] = %d, want 1", v, l)
		}
	}
	_, rounds1 := g.PeelLayers(1)
	if rounds1 != 4 {
		t.Errorf("path of 8 with threshold 1 peels in %d rounds, want 4", rounds1)
	}
}

func TestPeelLayersStalls(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PeelLayers on C5 with threshold 1 should panic (stall)")
		}
	}()
	Ring(5).PeelLayers(1)
}

func TestPeelLayersForestLogarithmic(t *testing.T) {
	r := rng.New(11)
	g := UniformTree(4096, r)
	_, rounds := g.PeelLayers(2)
	if rounds > 30 {
		t.Errorf("peeling a 4096-vertex tree took %d rounds, expected O(log n)", rounds)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Ring(6)
	keep := []bool{true, true, true, false, true, true}
	sub, o2n, n2o := g.InducedSubgraph(keep)
	if sub.N() != 5 {
		t.Fatalf("sub.N() = %d, want 5", sub.N())
	}
	if sub.M() != 4 { // ring minus vertex 3 removes edges {2,3},{3,4}
		t.Errorf("sub.M() = %d, want 4", sub.M())
	}
	if o2n[3] != -1 {
		t.Errorf("dropped vertex mapped to %d, want -1", o2n[3])
	}
	for newV, oldV := range n2o {
		if o2n[oldV] != newV {
			t.Errorf("mapping mismatch: n2o[%d]=%d but o2n[%d]=%d", newV, oldV, oldV, o2n[oldV])
		}
	}
}

func TestComponentSizes(t *testing.T) {
	g := Path(10)
	keep := make([]bool, 10)
	for _, v := range []int{0, 1, 2, 5, 6, 9} {
		keep[v] = true
	}
	sizes := g.ComponentSizes(keep)
	counts := map[int]int{}
	for _, s := range sizes {
		counts[s]++
	}
	if counts[3] != 1 || counts[2] != 1 || counts[1] != 1 || len(sizes) != 3 {
		t.Errorf("ComponentSizes = %v, want one each of 3,2,1", sizes)
	}
}

func TestPowerGraph(t *testing.T) {
	g := Path(5)
	p2 := g.PowerGraph(2)
	wantEdges := map[[2]int]bool{
		{0, 1}: true, {1, 2}: true, {2, 3}: true, {3, 4}: true,
		{0, 2}: true, {1, 3}: true, {2, 4}: true,
	}
	if p2.M() != len(wantEdges) {
		t.Fatalf("P5^2 has %d edges, want %d", p2.M(), len(wantEdges))
	}
	for _, e := range p2.Edges() {
		if !wantEdges[e] {
			t.Errorf("unexpected edge %v in P5^2", e)
		}
	}
}

func TestBallVertices(t *testing.T) {
	g := Path(9)
	ball := g.BallVertices(4, 2)
	want := map[int]bool{2: true, 3: true, 4: true, 5: true, 6: true}
	if len(ball) != len(want) {
		t.Fatalf("ball size = %d, want %d", len(ball), len(want))
	}
	for _, v := range ball {
		if !want[v] {
			t.Errorf("unexpected ball vertex %d", v)
		}
	}
	if ball[0] != 4 {
		t.Errorf("ball[0] = %d, want the center 4", ball[0])
	}
}

func TestShufflePorts(t *testing.T) {
	r := rng.New(31)
	g := UniformTree(80, r)
	sg := g.ShufflePorts(r)
	if sg.N() != g.N() || sg.M() != g.M() || sg.MaxDegree() != g.MaxDegree() {
		t.Fatal("ShufflePorts changed basic counts")
	}
	// Same edge multiset.
	want := map[[2]int]bool{}
	for _, e := range g.Edges() {
		want[e] = true
	}
	for _, e := range sg.Edges() {
		if !want[e] {
			t.Fatalf("shuffled graph has new edge %v", e)
		}
	}
	// Rev invariants hold after shuffling.
	for v := 0; v < sg.N(); v++ {
		for p, h := range sg.Ports(v) {
			back := sg.Ports(h.To)[h.Rev]
			if back.To != v || back.Rev != p || back.Edge != h.Edge {
				t.Fatalf("Rev broken after shuffle at v=%d p=%d", v, p)
			}
		}
	}
	// Original untouched (immutability).
	for v := 0; v < g.N(); v++ {
		for p, h := range g.Ports(v) {
			back := g.Ports(h.To)[h.Rev]
			if back.To != v || back.Rev != p {
				t.Fatalf("original graph mutated at v=%d p=%d", v, p)
			}
		}
	}
}

// bruteForceGirth enumerates all simple cycles via DFS — exponential, only
// for cross-checking Girth on tiny graphs.
func bruteForceGirth(g *Graph) int {
	best := -1
	n := g.N()
	var path []int
	onPath := make([]bool, n)
	var dfs func(v int)
	dfs = func(v int) {
		for _, h := range g.Ports(v) {
			w := h.To
			if len(path) >= 3 && w == path[0] {
				if best < 0 || len(path) < best {
					best = len(path)
				}
				continue
			}
			if onPath[w] || w < path[0] { // canonical: cycles start at min vertex
				continue
			}
			onPath[w] = true
			path = append(path, w)
			dfs(w)
			path = path[:len(path)-1]
			onPath[w] = false
		}
	}
	for s := 0; s < n; s++ {
		path = append(path[:0], s)
		onPath[s] = true
		dfs(s)
		onPath[s] = false
	}
	return best
}

func TestGirthMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(9) + 3
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		// Sample a random simple graph with m edges.
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		b := NewBuilder(n)
		for _, e := range pairs[:m] {
			b.AddEdge(e[0], e[1])
		}
		g := b.MustBuild()
		return g.Girth(0) == bruteForceGirth(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
