package view

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// fullFloodCollector is the test-only reference for Collector: the same
// collection, except that every flood from step 2 on carries everything the
// vertex knows, sorted by name.
type fullFloodCollector struct {
	t     int
	env   sim.Env
	name  uint64
	known map[uint64]Record
}

func (c *fullFloodCollector) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	c.absorb(step, recv)
	if step > c.t {
		return nil, true
	}
	send := make([]sim.Message, c.env.Degree)
	if step == 1 {
		self := c.known[c.name]
		for p := range send {
			send[p] = stepOneMsg{Rec: Record{Name: self.Name, Degree: self.Degree, Input: self.Input}, SenderPort: p}
		}
		return send, false
	}
	recs := make([]Record, 0, len(c.known))
	for _, r := range c.known {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	for p := range send {
		send[p] = floodMsg{Recs: recs}
	}
	return send, false
}

func (c *fullFloodCollector) absorb(step int, recv []sim.Message) {
	if step == 2 {
		self := c.known[c.name]
		self.Ports = make([]PortLink, c.env.Degree)
		for p, m := range recv {
			som := m.(stepOneMsg)
			self.Ports[p] = PortLink{Name: som.Rec.Name, Back: som.SenderPort}
			c.merge(som.Rec)
		}
		c.known[c.name] = self
		return
	}
	for _, m := range recv {
		if m == nil {
			continue
		}
		for _, r := range m.(floodMsg).Recs {
			c.merge(r)
		}
	}
}

func (c *fullFloodCollector) merge(r Record) {
	old, exists := c.known[r.Name]
	if !exists || (!old.enriched() && r.enriched()) {
		c.known[r.Name] = r
	}
}

// collected is what a probe machine outputs: the final known set and the
// ball built from it.
type collected struct {
	known map[uint64]Record
	ball  *Ball
}

// probe runs either collector as a standalone machine whose output exposes
// the known set as well as the ball.
type probe struct {
	t     int
	name  func(env sim.Env) uint64
	full  bool
	delta *Collector
	ref   *fullFloodCollector
}

func (m *probe) Init(env sim.Env) {
	name := m.name(env)
	if m.full {
		m.ref = &fullFloodCollector{t: m.t, env: env, name: name, known: map[uint64]Record{
			name: {Name: name, Degree: env.Degree, Input: env.Input},
		}}
		return
	}
	m.delta = NewCollector(m.t, name, env)
}

func (m *probe) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	if m.full {
		return m.ref.Step(step, recv)
	}
	return m.delta.Step(step, recv)
}

func (m *probe) Output() any {
	if m.full {
		return collected{known: m.ref.known, ball: buildBall(m.t, m.ref.name, m.ref.known)}
	}
	return collected{known: m.delta.known, ball: m.delta.Ball()}
}

// diffCase is one collection instance of the differential test.
type diffCase struct {
	label string
	g     *graph.Graph
	cfg   sim.Config
	name  func(env sim.Env) uint64
}

// randomNames draws each vertex's name from bits random bits, as the
// Theorem 5 construction does; with 3-4 bits names collide within a ball.
func randomNames(bits int) func(env sim.Env) uint64 {
	return func(env sim.Env) uint64 { return env.Rand.Uint64()%(1<<bits) + 1 }
}

func idName(env sim.Env) uint64 { return env.ID }

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	r := rng.New(17)
	var cases []diffCase
	for i := 0; i < 4; i++ {
		n := 20 + 15*i
		g := graph.RandomTree(n, 2+i, r)
		inputs := make([]any, n)
		for v := range inputs {
			inputs[v] = v % 3
		}
		cases = append(cases,
			diffCase{fmt.Sprintf("tree%d/ids", i), g, sim.Config{IDs: ids.Shuffled(n, r), Inputs: inputs}, idName},
			diffCase{fmt.Sprintf("tree%d/names3", i), g, sim.Config{Randomized: true, Seed: uint64(100 + i)}, randomNames(3)},
			diffCase{fmt.Sprintf("tree%d/names4", i), g, sim.Config{Randomized: true, Seed: uint64(200 + i)}, randomNames(4)},
		)
	}
	for i, shape := range []struct{ half, d, girth int }{{24, 3, 6}, {64, 3, 6}, {20, 4, 4}} {
		g, err := graph.HighGirthRegular(shape.half, shape.d, shape.girth, 200, r)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("regular%d-%d", shape.d, g.N())
		cases = append(cases,
			diffCase{label + "/ids", g.Graph, sim.Config{IDs: ids.Shuffled(g.N(), r)}, idName},
			diffCase{label + "/names3", g.Graph, sim.Config{Randomized: true, Seed: uint64(300 + i)}, randomNames(3)},
			diffCase{label + "/names4", g.Graph, sim.Config{Randomized: true, Seed: uint64(400 + i)}, randomNames(4)},
		)
	}
	return cases
}

// TestDeltaFloodMatchesFullFlood runs the delta collector and the full-flood
// reference on the same instances and requires identical known sets, balls,
// message counts and halting rounds under both engines.
func TestDeltaFloodMatchesFullFlood(t *testing.T) {
	collisions := 0
	for _, dc := range diffCases(t) {
		for radius := 1; radius <= 5; radius++ {
			for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
				label := fmt.Sprintf("%s/t=%d/engine=%d", dc.label, radius, engine)
				cfg := dc.cfg
				cfg.Engine = engine
				run := func(full bool) *sim.Result {
					res, err := sim.Run(dc.g, cfg, func() sim.Machine {
						return &probe{t: radius, name: dc.name, full: full}
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res
				}
				got, want := run(false), run(true)
				if got.MessagesSent != want.MessagesSent || got.Rounds != want.Rounds {
					t.Errorf("%s: delta sent %d messages in %d rounds, full flood %d in %d",
						label, got.MessagesSent, got.Rounds, want.MessagesSent, want.Rounds)
				}
				if !slices.Equal(got.HaltRound, want.HaltRound) {
					t.Errorf("%s: HaltRound %v, full flood %v", label, got.HaltRound, want.HaltRound)
				}
				for v := range got.Outputs {
					g, w := got.Outputs[v].(collected), want.Outputs[v].(collected)
					if !reflect.DeepEqual(g.known, w.known) {
						t.Fatalf("%s: vertex %d knows %v, full flood %v", label, v, g.known, w.known)
					}
					compareBalls(t, fmt.Sprintf("%s: vertex %d", label, v), g.ball, w.ball)
					if g.ball.N() < len(dc.g.BallVertices(v, radius)) {
						collisions++ // two ball vertices share a name
					}
				}
			}
		}
	}
	if collisions == 0 {
		t.Error("no ball had a name collision; the random-name cases exercise nothing")
	}
}

// compareBalls requires equal records, distances and local indices of every
// port neighbour.
func compareBalls(t *testing.T, label string, got, want *Ball) {
	t.Helper()
	if !reflect.DeepEqual(got.Recs, want.Recs) {
		t.Fatalf("%s: ball records %v, full flood %v", label, got.Recs, want.Recs)
	}
	if !slices.Equal(got.Dist, want.Dist) {
		t.Fatalf("%s: ball distances %v, full flood %v", label, got.Dist, want.Dist)
	}
	for _, rec := range want.Recs {
		for _, pl := range rec.Ports {
			if g, w := got.LocalIndex(pl.Name), want.LocalIndex(pl.Name); g != w {
				t.Fatalf("%s: LocalIndex(%d) = %d, full flood %d", label, pl.Name, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatalf("%s: ball adjacency %v, full flood %v", label, got.adj, want.adj)
	}
}

// TestCollectorReleasesChangeSet checks that a finished collector keeps no
// flood buffer beyond its known set.
func TestCollectorReleasesChangeSet(t *testing.T) {
	r := rng.New(3)
	g := graph.RandomTree(40, 4, r)
	var ps []*probe // appended by the sequential engine's factory calls
	f := func() sim.Machine {
		p := &probe{t: 3, name: idName}
		ps = append(ps, p)
		return p
	}
	if _, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(g.N(), r)}, f); err != nil {
		t.Fatal(err)
	}
	for v, p := range ps {
		if p.delta.changed != nil {
			t.Fatalf("collector %d still holds %d changed names after collection", v, len(p.delta.changed))
		}
	}
}
