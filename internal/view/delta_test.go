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
		slot, recs := slotTable(m.ref.name, m.ref.known)
		return collected{known: m.ref.known, ball: buildBall(m.t, slot, recs)}
	}
	known := make(map[uint64]Record, len(m.delta.recs))
	for name, s := range m.delta.slot {
		known[name] = m.delta.recs[s]
	}
	return collected{known: known, ball: m.delta.Ball()}
}

// slotTable lays a known map out as the slot table buildBall reads: the
// center in slot 0, every other name after it in ascending order.
func slotTable(center uint64, known map[uint64]Record) (map[uint64]int32, []Record) {
	slot := map[uint64]int32{center: 0}
	recs := []Record{known[center]}
	names := make([]uint64, 0, len(known))
	for name := range known {
		if name != center {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		slot[name] = int32(len(recs))
		recs = append(recs, known[name])
	}
	return slot, recs
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
			collisions += diffRun(t, dc, radius)
		}
	}
	if collisions == 0 {
		t.Error("no ball had a name collision; the random-name cases exercise nothing")
	}
}

// FuzzCollector is TestDeltaFloodMatchesFullFlood on a random tree or
// high-girth regular graph, a radius of 1-5 and 3- or 4-bit random names.
func FuzzCollector(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(20), uint8(3), uint8(3))
	f.Add(uint64(2), uint8(1), uint8(12), uint8(4), uint8(4))
	f.Add(uint64(2016), uint8(0), uint8(57), uint8(5), uint8(3))
	f.Add(uint64(7), uint8(1), uint8(30), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, shape, size, radius, bits uint8) {
		r := rng.New(seed)
		dc := diffCase{
			label: fmt.Sprintf("seed%d/shape%d/size%d", seed, shape%2, size),
			cfg:   sim.Config{Randomized: true, Seed: seed},
			name:  randomNames(3 + int(bits%2)),
		}
		if shape%2 == 0 {
			dc.g = graph.RandomTree(2+int(size%60), 2+int(shape/2%4), r)
		} else {
			g, err := graph.HighGirthRegular(4+int(size%20), 3+int(shape/2%2), 4+2*int(shape/4%2), 20, r)
			if err != nil {
				t.Skip(err)
			}
			dc.g = g.Graph
		}
		diffRun(t, dc, 1+int(radius%5))
	})
}

// diffRun collects radius-t balls of dc on both engines with the delta
// collector and the full-flood reference, requires the two to agree, and
// returns how many balls had a name collision.
func diffRun(t *testing.T, dc diffCase, radius int) (collisions int) {
	t.Helper()
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
			compareBalls(t, fmt.Sprintf("%s: vertex %d", label, v), g, w)
			if g.ball.N() < len(dc.g.BallVertices(v, radius)) {
				collisions++ // two ball vertices share a name
			}
		}
	}
	return collisions
}

// compareBalls requires equal records, distances and adjacency, and equal
// local indices of every known name: a known name outside the ball must
// give -1 on both sides.
func compareBalls(t *testing.T, label string, got, want collected) {
	t.Helper()
	g, w := got.ball, want.ball
	if !reflect.DeepEqual(g.Recs, w.Recs) {
		t.Fatalf("%s: ball records %v, full flood %v", label, g.Recs, w.Recs)
	}
	if !slices.Equal(g.Dist, w.Dist) {
		t.Fatalf("%s: ball distances %v, full flood %v", label, g.Dist, w.Dist)
	}
	for name := range want.known {
		if gi, wi := g.LocalIndex(name), w.LocalIndex(name); gi != wi {
			t.Fatalf("%s: LocalIndex(%d) = %d, full flood %d", label, name, gi, wi)
		}
	}
	if g.adj != nil || w.adj != nil {
		t.Fatalf("%s: ball adjacency wired before SimulateCenter", label)
	}
	g.wire()
	w.wire()
	if !reflect.DeepEqual(g.adj, w.adj) {
		t.Fatalf("%s: ball adjacency %v, full flood %v", label, g.adj, w.adj)
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

// tableProbe runs a bare collector and notes its slot table's length and
// capacity at the step collection ends.
type tableProbe struct {
	c        *Collector
	t        int
	len, cap int
}

func (m *tableProbe) Init(env sim.Env) { m.c = NewCollector(m.t, env.ID, env) }

func (m *tableProbe) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	send, done := m.c.Step(step, recv)
	if done {
		m.len, m.cap = len(m.c.recs), cap(m.c.recs)
	}
	return send, done
}

func (m *tableProbe) Output() any { return nil }

// TestSlotTableStopsAtN checks that a collector that learns every name of
// the graph ends with a table of exactly Env.N records, not the next power
// of two, and that its ball, built once, takes the table over.
func TestSlotTableStopsAtN(t *testing.T) {
	r := rng.New(9)
	g := graph.RandomTree(48, 3, r)
	var ps []*tableProbe // appended by the sequential engine's factory calls
	f := func() sim.Machine {
		p := &tableProbe{t: g.N()}
		ps = append(ps, p)
		return p
	}
	if _, err := sim.Run(g, sim.Config{IDs: ids.Shuffled(g.N(), r)}, f); err != nil {
		t.Fatal(err)
	}
	for v, p := range ps {
		if p.len != g.N() || p.cap != g.N() {
			t.Fatalf("collector %d ended with %d records in a table of %d, want %d in %d", v, p.len, p.cap, g.N(), g.N())
		}
		b := p.c.Ball()
		if p.c.Ball() != b || p.c.recs != nil {
			t.Fatalf("collector %d: a second Ball call built a new ball, or the collector kept its table", v)
		}
		if b.N() != g.N() || b.LocalIndex(b.Recs[b.N()-1].Name) != b.N()-1 {
			t.Fatalf("collector %d: ball of %d vertices, want the whole %d-vertex tree", v, b.N(), g.N())
		}
	}
}

// TestEmptyFloodAllocatesNothing checks that once a collector has nothing
// new to flood, a Step sends the shared empty flood and allocates nothing.
func TestEmptyFloodAllocatesNothing(t *testing.T) {
	c := NewCollector(1000, 1, sim.Env{Degree: 2})
	c.Step(1, make([]sim.Message, 2))
	c.Step(2, []sim.Message{
		stepOneMsg{Rec: Record{Name: 2, Degree: 1}},
		stepOneMsg{Rec: Record{Name: 3, Degree: 1}},
	})
	empty := []sim.Message{emptyFlood, emptyFlood}
	step := 3
	allocs := testing.AllocsPerRun(100, func() {
		send, done := c.Step(step, empty)
		if done || len(send) != 2 || len(send[0].(floodMsg).Recs) != 0 {
			t.Fatalf("step %d: sent %v, done %v; want two empty floods", step, send, done)
		}
		step++
	})
	if allocs != 0 {
		t.Errorf("an empty-flood Step allocates %.1f times, want 0", allocs)
	}
}
