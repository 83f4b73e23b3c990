package view_test

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/view"
)

// collectBalls runs a standalone radius-t collection on g and returns the
// per-vertex balls plus the round count.
func collectBalls(t *testing.T, g *graph.Graph, assignment ids.Assignment, radius int) ([]*view.Ball, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{IDs: assignment}, view.NewCollectMachineFactory(radius, nil))
	if err != nil {
		t.Fatalf("collection failed: %v", err)
	}
	balls := make([]*view.Ball, g.N())
	for v := range balls {
		balls[v] = res.Outputs[v].(*view.Ball)
	}
	return balls, res.Rounds
}

func TestCollectionCostsExactlyTRounds(t *testing.T) {
	g := graph.Ring(12)
	assignment := ids.Sequential(12)
	for radius := 0; radius <= 4; radius++ {
		_, rounds := collectBalls(t, g, assignment, radius)
		if rounds != radius {
			t.Errorf("radius %d collection took %d rounds, want %d", radius, rounds, radius)
		}
	}
}

func TestBallContents(t *testing.T) {
	g := graph.Path(9)
	assignment := ids.Sequential(9)
	balls, _ := collectBalls(t, g, assignment, 2)
	// Middle vertex 4 must see exactly {2,3,4,5,6}.
	b := balls[4]
	if b.N() != 5 {
		t.Fatalf("ball size = %d, want 5", b.N())
	}
	for _, name := range []uint64{3, 4, 5, 6, 7} { // IDs are v+1
		if b.LocalIndex(name) < 0 {
			t.Errorf("name %d missing from ball", name)
		}
	}
	if b.LocalIndex(2) >= 0 || b.LocalIndex(8) >= 0 {
		t.Error("ball contains vertices beyond radius 2")
	}
	// Distances must be exact.
	if b.Dist[b.LocalIndex(5)] != 0 {
		t.Error("center distance not 0")
	}
	if b.Dist[b.LocalIndex(3)] != 2 || b.Dist[b.LocalIndex(7)] != 2 {
		t.Error("boundary distances wrong")
	}
	// End vertex 0 has a truncated ball.
	if balls[0].N() != 3 {
		t.Errorf("end vertex ball size = %d, want 3", balls[0].N())
	}
}

func TestBallOnTree(t *testing.T) {
	r := rng.New(5)
	g := graph.RandomTree(60, 4, r)
	assignment := ids.Shuffled(60, r)
	balls, _ := collectBalls(t, g, assignment, 3)
	for v := 0; v < g.N(); v++ {
		want := len(g.BallVertices(v, 3))
		b := balls[v]
		if got := b.N(); got != want {
			t.Fatalf("vertex %d: ball size %d, want %d", v, got, want)
		}
		// The ball is laid out in BFS order from the center, every vertex
		// at its graph distance, and LocalIndex inverts the layout.
		dist := g.BFS(v)
		for u := 0; u < g.N(); u++ {
			i := b.LocalIndex(assignment[u])
			if (i >= 0) != (dist[u] <= 3) {
				t.Fatalf("vertex %d: LocalIndex of vertex %d at distance %d is %d", v, u, dist[u], i)
			}
			if i >= 0 && (b.Recs[i].Name != assignment[u] || b.Dist[i] != dist[u]) {
				t.Fatalf("vertex %d: local %d holds name %d at distance %d, want vertex %d's name %d at %d",
					v, i, b.Recs[i].Name, b.Dist[i], u, assignment[u], dist[u])
			}
		}
		if b.Recs[0].Name != assignment[v] {
			t.Fatalf("vertex %d: local 0 is name %d, want the center %d", v, b.Recs[0].Name, assignment[v])
		}
		for i := 1; i < b.N(); i++ {
			if b.Dist[i] < b.Dist[i-1] {
				t.Fatalf("vertex %d: distances %v are not in BFS order", v, b.Dist)
			}
		}
	}
}

// parityMachine is a deterministic t-round algorithm with port-asymmetric
// first-round sends, to exercise the boundary-wiring replay: each node sends
// (ID*31+port) on port p in round 1, then floods sums for the remaining
// rounds; output is a hash of everything received, i.e. highly sensitive to
// exact message routing.
type parityMachine struct {
	env    sim.Env
	rounds int
	acc    uint64
}

func newParityFactory(rounds int) sim.Factory {
	return func() sim.Machine { return &parityMachine{rounds: rounds} }
}

func (m *parityMachine) Init(env sim.Env) {
	m.env = env
	m.acc = env.ID * 1000003
}

func (m *parityMachine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	for p, msg := range recv {
		if msg != nil {
			m.acc = m.acc*16777619 ^ msg.(uint64) ^ uint64(p)<<32
		}
	}
	if step > m.rounds {
		return nil, true
	}
	send := make([]sim.Message, m.env.Degree)
	for p := range send {
		send[p] = m.acc ^ uint64(p)*2654435761 ^ uint64(step)
	}
	return send, false
}

func (m *parityMachine) Output() any { return m.acc }

func TestSimulateCenterReproducesRealRun(t *testing.T) {
	// The heart of the indistinguishability principle: for every vertex, a
	// t-round machine re-executed on the radius-t ball must produce exactly
	// the output of the real networked run.
	r := rng.New(123)
	for trial := 0; trial < 5; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.RandomTree(40, 5, r)
		case 1:
			g = graph.Ring(17)
		default:
			g = graph.RandomRegularBipartite(12, 3, r).Graph
		}
		n := g.N()
		assignment := ids.Shuffled(n, r)
		const radius = 3
		real, err := sim.Run(g, sim.Config{IDs: assignment}, newParityFactory(radius))
		if err != nil {
			t.Fatal(err)
		}
		if real.Rounds != radius {
			t.Fatalf("real run rounds = %d, want %d", real.Rounds, radius)
		}
		balls, _ := collectBalls(t, g, assignment, radius)
		for v := 0; v < n; v++ {
			out, rounds, err := balls[v].SimulateCenter(newParityFactory(radius), view.SimOptions{
				N: n, MaxDeg: g.MaxDegree(), UseIDs: true,
			})
			if err != nil {
				t.Fatalf("trial %d vertex %d: %v", trial, v, err)
			}
			if rounds != radius {
				t.Errorf("trial %d vertex %d: simulated rounds %d, want %d", trial, v, rounds, radius)
			}
			if out != real.Outputs[v] {
				t.Fatalf("trial %d vertex %d: simulated output %v != real %v", trial, v, out, real.Outputs[v])
			}
		}
	}
}

func TestSimulateCenterLiesAboutGlobals(t *testing.T) {
	// The transforms rely on re-running machines under fake (n, Δ): check
	// the simulated env really carries the lie.
	g := graph.Path(5)
	assignment := ids.Sequential(5)
	balls, _ := collectBalls(t, g, assignment, 1)
	f := func() sim.Machine {
		var env sim.Env
		return &sim.FuncMachine{
			OnInit:   func(e sim.Env) { env = e },
			OnStep:   func(step int, recv []sim.Message) ([]sim.Message, bool) { return nil, true },
			OnOutput: func() any { return env.N*1000 + env.MaxDeg },
		}
	}
	out, _, err := balls[2].SimulateCenter(f, view.SimOptions{N: 777, MaxDeg: 9, UseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.(int) != 777*1000+9 {
		t.Errorf("simulated globals = %v, want 777009", out)
	}
}

func TestSimulateCenterRejectsOverHorizon(t *testing.T) {
	g := graph.Path(5)
	balls, _ := collectBalls(t, g, ids.Sequential(5), 1)
	_, _, err := balls[2].SimulateCenter(newParityFactory(1), view.SimOptions{N: 5, MaxDeg: 2, Steps: 5, UseIDs: true})
	if err == nil {
		t.Error("simulation beyond the exactness horizon must error")
	}
}

func TestSimulateCenterErrorsWhenCenterRunsLong(t *testing.T) {
	g := graph.Path(5)
	balls, _ := collectBalls(t, g, ids.Sequential(5), 1)
	// A 3-round machine cannot finish on a radius-1 ball.
	_, _, err := balls[2].SimulateCenter(newParityFactory(3), view.SimOptions{N: 5, MaxDeg: 2, UseIDs: true})
	if err == nil {
		t.Error("center that does not halt within the horizon must error")
	}
}

func TestRandomizedReplay(t *testing.T) {
	// Replaying a randomized machine with the same per-name streams must
	// reproduce the real run (streams are derived from names here).
	n := 20
	g := graph.Ring(n)
	assignment := ids.Sequential(n)
	streamFor := func(name uint64) *rng.Source { return rng.New(name * 7919) }
	factory := func() sim.Machine {
		var env sim.Env
		var out uint64
		var send []sim.Message
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(step int, recv []sim.Message) ([]sim.Message, bool) {
				switch step {
				case 1:
					return sim.BroadcastInto(&send, env.Degree, streamFor(env.ID).Uint64()), false
				default:
					for _, m := range recv {
						out ^= m.(uint64)
					}
					return nil, true
				}
			},
			OnOutput: func() any { return out },
		}
	}
	real, err := sim.Run(g, sim.Config{IDs: assignment}, factory)
	if err != nil {
		t.Fatal(err)
	}
	balls, _ := collectBalls(t, g, assignment, 1)
	for v := 0; v < n; v++ {
		out, _, err := balls[v].SimulateCenter(factory, view.SimOptions{N: n, MaxDeg: 2, UseIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		if out != real.Outputs[v] {
			t.Fatalf("vertex %d: replay %v != real %v", v, out, real.Outputs[v])
		}
	}
}

func TestZeroRadiusBall(t *testing.T) {
	g := graph.Star(5)
	balls, rounds := collectBalls(t, g, ids.Sequential(5), 0)
	if rounds != 0 {
		t.Errorf("radius-0 collection took %d rounds", rounds)
	}
	if balls[0].N() != 1 {
		t.Errorf("radius-0 ball has %d vertices", balls[0].N())
	}
	// A 0-round machine must replay fine.
	f := func() sim.Machine {
		var deg int
		return &sim.FuncMachine{
			OnInit:   func(e sim.Env) { deg = e.Degree },
			OnStep:   func(step int, recv []sim.Message) ([]sim.Message, bool) { return nil, true },
			OnOutput: func() any { return deg },
		}
	}
	out, rds, err := balls[0].SimulateCenter(f, view.SimOptions{N: 5, MaxDeg: 4})
	if err != nil || rds != 0 || out.(int) != 4 {
		t.Errorf("0-round replay: out=%v rounds=%d err=%v", out, rds, err)
	}
}
