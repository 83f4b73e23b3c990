// Package view implements radius-t view collection and exact local
// re-execution — the executable form of the indistinguishability principle
// that drives the paper's meta-results.
//
// A t-round LOCAL algorithm's output at a vertex is a function of the
// vertex's radius-t view. This package makes both directions concrete:
//
//   - Collector is a (sub-)machine that gathers the radius-t ball of every
//     vertex in exactly t communication rounds, using names (IDs) to stitch
//     flooded records together. Its known set is a slot table: one map from
//     name to slot and a slice of records, slot 0 being the vertex itself.
//     Each round a vertex floods only the records it added or enriched
//     since its previous flood, and a round with nothing new sends one
//     shared empty flood; see Collector for why that yields the same ball
//     as re-flooding everything it knows.
//   - Ball.SimulateCenter re-executes an arbitrary Machine on a collected
//     ball and reproduces the center's t-round output exactly. Only the
//     tests call it: it is the exactness oracle that Collector is held to,
//     and the only reader of the ball's port adjacency, which it builds on
//     its first call. The speedup transforms (Theorems 6 and 8) use
//     Collector alone and read the collected Ball's records directly.
//
// Exactness argument (mirrored in the tests): the center's state after step
// t+1 depends on the step-(t+1-k) states of vertices at distance k, down to
// the step-1 states of vertices at distance t, which are functions of their
// initial environment alone. The collector therefore records full port
// wiring for vertices at distance <= t-1 and, for boundary vertices at
// distance exactly t, their environment plus the ports facing inward
// (learned from the step-1 messages, which carry the sender's port index).
// That is precisely enough to replay every message that can causally reach
// the center within t rounds.
package view

import (
	"cmp"
	"fmt"
	"slices"

	"locality/internal/sim"
)

// PortLink describes one port of an enriched record: the neighbor's name and
// the port index of the same edge on the neighbor's side.
type PortLink struct {
	Name uint64
	Back int
}

// Record is a vertex's self-description as flooded during collection.
// Ports is nil for a "bare" record (boundary vertex whose wiring was not yet
// learned).
type Record struct {
	Name   uint64
	Degree int
	Input  any
	Ports  []PortLink
}

// enriched reports whether the record carries port wiring.
func (r Record) enriched() bool { return r.Ports != nil }

// stepOneMsg is the first-round payload: the bare record plus the sender's
// port index for this edge, which is what lets receivers reconstruct
// boundary wiring.
type stepOneMsg struct {
	Rec        Record
	SenderPort int
}

// floodMsg is the payload of all later rounds: the records the sender added
// or enriched since its previous flood, sorted by name. The engines share one
// floodMsg across all receivers, so Recs is never written after sending.
type floodMsg struct {
	Recs []Record
}

// emptyFlood is the one boxed floodMsg every collector sends on a step with
// no changes. It is never written, so all nodes of both engines may share it.
var emptyFlood sim.Message = floodMsg{}

// Collector gathers the radius-T ball of one vertex. It is written as an
// embeddable phase: composite machines call Step and, when it reports done,
// read Ball. Use NewCollectMachineFactory for a standalone run.
//
// The collector occupies steps 1..T+1 of its machine's life (T communication
// rounds; the final step only absorbs the last messages).
//
// Its known set is a slot table: slot maps each known name to an index into
// recs, and slot 0 is the vertex itself. A name keeps its slot for the whole
// collection; enriching its record overwrites recs in place.
//
// It floods what changed since its last flood: the first flood (step 2)
// carries the enriched self record and the step-1 neighbours, every later one
// the records merge added or enriched while absorbing that step. Every port
// still gets one floodMsg per round, possibly empty, so message and round
// counts match full flooding; the empty ones are all the shared emptyFlood.
// The known sets also match full flooding exactly, name collisions included:
// merge only moves a name from absent to bare to enriched, so re-merging a
// record merged before is a no-op, and a sender's current record for a name
// was delivered at the step it became current — the only step at which it
// could change the receiver.
type Collector struct {
	t    int
	env  sim.Env
	slot map[uint64]int32
	recs []Record
	// changed holds the slots merge added or enriched since the last flood,
	// unsorted and possibly repeated; nil once collection is done.
	changed []int32
	// send is the send slice of every step: the step-1 messages, then
	// each flood broadcast (see sim.BroadcastInto).
	send []sim.Message
	// ball is the collected ball, built on the first Ball call from the
	// slot table, whose records it then holds.
	ball *Ball
}

// NewCollector returns a collector for radius t at a vertex whose unique
// name is name. In DetLOCAL, name is the ID; RandLOCAL callers generate
// names from random bits first (as Theorem 5 prescribes).
func NewCollector(t int, name uint64, env sim.Env) *Collector {
	if t < 0 {
		panic(fmt.Sprintf("view: negative radius %d", t))
	}
	return &Collector{
		t:    t,
		env:  env,
		slot: map[uint64]int32{name: 0},
		recs: []Record{{Name: name, Degree: env.Degree, Input: env.Input}},
	}
}

// Step advances the collection by one simulator step. The step argument must
// be 1 on the first call and increase by one per call; composite machines
// embedding a collector mid-life pass their own normalized phase step.
// The send slice is reused by the next Step: a caller hands it to the
// engine as its own send slice and neither keeps nor writes it.
func (c *Collector) Step(step int, recv []sim.Message) (send []sim.Message, done bool) {
	c.absorb(step, recv)
	if step > c.t {
		c.changed = nil
		return nil, true
	}
	if step == 1 {
		c.send = make([]sim.Message, c.env.Degree)
		self := c.recs[0]
		for p := range c.send {
			c.send[p] = stepOneMsg{Rec: Record{Name: self.Name, Degree: self.Degree, Input: self.Input}, SenderPort: p}
		}
		return c.send, false
	}
	msg := emptyFlood
	if recs := c.delta(); recs != nil {
		msg = floodMsg{Recs: recs}
	}
	return sim.BroadcastInto(&c.send, c.env.Degree, msg), false
}

// delta returns the records changed since the last flood, or nil when none
// did, sorted by name so that no map order leaks into messages (the engines
// are compared byte-for-byte), and starts a new change set.
func (c *Collector) delta() []Record {
	if len(c.changed) == 0 {
		return nil
	}
	slices.SortFunc(c.changed, func(a, b int32) int { return cmp.Compare(c.recs[a].Name, c.recs[b].Name) })
	slots := slices.Compact(c.changed)
	recs := make([]Record, len(slots))
	for i, s := range slots {
		recs[i] = c.recs[s]
	}
	c.changed = c.changed[:0]
	return recs
}

// absorb merges received records; step-1 messages additionally wire up the
// collector's own port links.
func (c *Collector) absorb(step int, recv []sim.Message) {
	if step == 2 {
		// The step-1 messages (consumed now) define our own port wiring.
		ports := make([]PortLink, c.env.Degree)
		for p, m := range recv {
			som, ok := m.(stepOneMsg)
			if !ok {
				panic(fmt.Sprintf("view: expected stepOneMsg on port %d, got %T", p, m))
			}
			ports[p] = PortLink{Name: som.Rec.Name, Back: som.SenderPort}
			c.merge(som.Rec)
		}
		c.recs[0].Ports = ports
		c.changed = append(c.changed, 0)
		return
	}
	for _, m := range recv {
		if m == nil {
			continue
		}
		fm, ok := m.(floodMsg)
		if !ok {
			panic(fmt.Sprintf("view: expected floodMsg, got %T", m))
		}
		for _, r := range fm.Recs {
			c.merge(r)
		}
	}
}

// merge keeps the most informative record per name and notes a change for
// the next flood.
func (c *Collector) merge(r Record) {
	s, exists := c.slot[r.Name]
	switch {
	case !exists:
		s = int32(len(c.recs))
		c.slot[r.Name] = s
		if len(c.recs) == cap(c.recs) {
			// Names never outnumber the graph's vertices, so doubling
			// stops at Env.N.
			size := 2 * len(c.recs)
			if c.env.N > len(c.recs) {
				size = min(size, c.env.N)
			}
			grown := make([]Record, len(c.recs), size)
			copy(grown, c.recs)
			c.recs = grown
		}
		c.recs = append(c.recs, r)
	case !c.recs[s].enriched() && r.enriched():
		c.recs[s] = r
	default:
		return
	}
	c.changed = append(c.changed, s)
}

// Ball assembles the radius-T ball once collection is done. The ball takes
// over the collector's slot table, which no later Step changes, and later
// calls return the same ball.
func (c *Collector) Ball() *Ball {
	if c.ball == nil {
		c.ball = buildBall(c.t, c.slot, c.recs)
		c.recs = nil
	}
	return c.ball
}

// Rounds returns the number of communication rounds the collection costs.
func (c *Collector) Rounds() int { return c.t }

// collectMachine wraps a Collector as a standalone Machine whose output is
// the *Ball.
type collectMachine struct {
	t    int
	name func(env sim.Env) uint64
	c    *Collector
}

// NewCollectMachineFactory returns a Factory for standalone radius-t
// collection; name extracts each vertex's unique name from its Env (the
// default, when nil, uses Env.ID).
func NewCollectMachineFactory(t int, name func(env sim.Env) uint64) sim.Factory {
	if name == nil {
		name = func(env sim.Env) uint64 { return env.ID }
	}
	return func() sim.Machine {
		return &collectMachine{t: t, name: name}
	}
}

var _ sim.Machine = (*collectMachine)(nil)

func (m *collectMachine) Init(env sim.Env) {
	m.c = NewCollector(m.t, m.name(env), env)
}

func (m *collectMachine) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	return m.c.Step(step, recv)
}

func (m *collectMachine) Output() any { return m.c.Ball() }

// Ball is a collected radius-T view. Local vertex 0 is the center. Records
// of vertices at distance <= T-1 are enriched (full port wiring); records at
// distance exactly T may be bare except for the inward ports learned from
// their step-1 messages.
type Ball struct {
	T    int
	Dist []int
	Recs []Record
	// slot is the collector's name table and local[s] the local index of
	// slot s's record, or -1 when that record is outside the ball.
	slot  map[uint64]int32
	local []int32
	// adj[u][p] = local index of u's port-p neighbor, or -1 when that
	// neighbor is outside the ball or unknown. Entries exist only for ports
	// with known wiring; adj[u] is nil for vertices with no known wiring.
	// SimulateCenter, its only reader, wires it on first use.
	adj [][]int
}

// N returns the number of vertices in the ball.
func (b *Ball) N() int { return len(b.Recs) }

// LocalIndex returns the local index of the vertex with the given name,
// or -1 if it is not in the ball.
func (b *Ball) LocalIndex(name uint64) int {
	if s, ok := b.slot[name]; ok {
		return int(b.local[s])
	}
	return -1
}

// buildBall BFS-explores the slot table from the center (slot 0), keeping
// vertices within distance t. It reorders recs in place into BFS order and
// returns the ball on that array, so the table's records are not copied: a
// table passed in is the ball's from then on.
func buildBall(t int, slot map[uint64]int32, recs []Record) *Ball {
	n := len(recs)
	idx := make([]int32, 3*n)
	// local[s] is slot s's ball index once BFS reaches it, else -1; until
	// then its record sits at recs[where[s]]. at[p] is the slot whose record
	// sits at recs[p]. Reached slots fill recs[:k] in BFS order, so the
	// others always lie at or beyond k.
	local, where, at := idx[:n:n], idx[n:2*n:2*n], idx[2*n:]
	for s := range local {
		local[s], where[s], at[s] = -1, int32(s), int32(s)
	}
	local[0] = 0
	dists := make([]int, 1, n)
	// recs[:k] is the BFS queue.
	k := int32(1)
	for qi := int32(0); qi < k; qi++ {
		rec, dist := recs[qi], dists[qi]
		if dist >= t || !rec.enriched() {
			continue
		}
		for _, pl := range rec.Ports {
			s, ok := slot[pl.Name]
			if !ok || local[s] >= 0 {
				// Unknown names can lie only beyond the collection
				// horizon (outside the ball); seen ones are queued already.
				continue
			}
			// Swap slot s's record into recs[k].
			p, o := where[s], at[k]
			recs[k], recs[p] = recs[p], recs[k]
			at[k], at[p] = s, o
			where[s], where[o] = k, p
			local[s] = k
			k++
			dists = append(dists, dist+1)
		}
	}
	return &Ball{T: t, Dist: dists, Recs: recs[:k:k], slot: slot, local: local}
}

// wire builds adj from enriched records; bare boundary records get their
// inward ports wired from the neighbor side (using Back indices).
func (b *Ball) wire() {
	b.adj = make([][]int, len(b.Recs))
	for u, rec := range b.Recs {
		if !rec.enriched() {
			continue
		}
		b.adj[u] = make([]int, len(rec.Ports))
		for p, pl := range rec.Ports {
			b.adj[u][p] = b.LocalIndex(pl.Name)
		}
	}
	for u, rec := range b.Recs {
		if !rec.enriched() {
			continue
		}
		for _, pl := range rec.Ports {
			w := b.LocalIndex(pl.Name)
			if w < 0 {
				continue
			}
			if b.adj[w] == nil {
				b.adj[w] = makeFilled(b.Recs[w].Degree, -1)
			}
			if pl.Back >= 0 && pl.Back < len(b.adj[w]) {
				b.adj[w][pl.Back] = u
			}
		}
	}
}

func makeFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// SimOptions configures a local re-execution.
type SimOptions struct {
	// N and MaxDeg are the global parameters handed to the simulated nodes;
	// the transforms deliberately lie here ("assume the graph size is
	// 2^ℓ'"), which is the whole point.
	N      int
	MaxDeg int
	// Steps bounds the re-execution. For exact center outputs it must be at
	// most T+1 (T communication rounds plus the free output step).
	Steps int
	// UseIDs passes each record's Name as the node ID.
	UseIDs bool
}

// SimulateCenter re-executes the machine on the ball and returns the
// center's output and the number of communication rounds it used. An error
// is returned if the center has not halted within opt.Steps steps.
// Simulated nodes get no random stream, so f must be deterministic.
func (b *Ball) SimulateCenter(f sim.Factory, opt SimOptions) (any, int, error) {
	if opt.Steps <= 0 {
		opt.Steps = b.T + 1
	}
	if opt.Steps > b.T+1 {
		return nil, 0, fmt.Errorf("view: %d steps exceed exactness horizon %d of a radius-%d ball", opt.Steps, b.T+1, b.T)
	}
	if b.adj == nil {
		b.wire()
	}
	n := b.N()
	machines := make([]sim.Machine, n)
	for u := 0; u < n; u++ {
		rec := b.Recs[u]
		env := sim.Env{
			Node:   -1, // simulated nodes have no host index
			N:      opt.N,
			MaxDeg: opt.MaxDeg,
			Degree: rec.Degree,
			Input:  rec.Input,
		}
		if opt.UseIDs {
			env.ID = rec.Name
			env.HasID = true
		}
		machines[u] = f()
		machines[u].Init(env)
	}
	inboxCur := make([][]sim.Message, n)
	inboxNext := make([][]sim.Message, n)
	done := make([]bool, n)
	for u := 0; u < n; u++ {
		inboxCur[u] = make([]sim.Message, b.Recs[u].Degree)
		inboxNext[u] = make([]sim.Message, b.Recs[u].Degree)
	}
	for step := 1; step <= opt.Steps; step++ {
		for u := 0; u < n; u++ {
			if done[u] {
				continue
			}
			send, nodeDone := machines[u].Step(step, inboxCur[u])
			if nodeDone {
				done[u] = true
				if u == 0 {
					return machines[0].Output(), step - 1, nil
				}
			}
			if b.adj[u] == nil {
				continue // wiring unknown; messages cannot reach the center in time anyway
			}
			for p := 0; p < len(send) && p < len(b.adj[u]); p++ {
				if send[p] == nil {
					continue
				}
				w := b.adj[u][p]
				if w < 0 {
					continue
				}
				// Find the reverse port: the port q of w with adj[w][q] == u
				// and matching edge. Recover it from w's record if enriched,
				// else from the inward wiring.
				q := b.reversePort(u, p, w)
				if q >= 0 {
					inboxNext[w][q] = send[p]
				}
			}
		}
		inboxCur, inboxNext = inboxNext, inboxCur
		for u := range inboxNext {
			for i := range inboxNext[u] {
				inboxNext[u][i] = nil
			}
		}
	}
	return nil, 0, fmt.Errorf("view: center did not halt within %d steps", opt.Steps)
}

// reversePort returns the port of w that faces u's port p, or -1 if unknown.
func (b *Ball) reversePort(u, p, w int) int {
	if rec := b.Recs[u]; rec.enriched() {
		return rec.Ports[p].Back
	}
	// u is a bare boundary vertex: its inward wiring was set from w's side,
	// so search w's ports for u.
	for q, x := range b.adj[w] {
		if x == u {
			if wrec := b.Recs[w]; wrec.enriched() && wrec.Ports[q].Back == p {
				return q
			}
		}
	}
	return -1
}
