package core

import (
	"locality/internal/forest"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// idBits is the length of the random identifiers Theorems 10 and 11 draw
// (collision probability n²/2^idBits).
const idBits = 40

// randomID draws a vertex's random identifier in 1..2^idBits.
func randomID(env sim.Env) uint64 { return env.Rand.Uint64()%(1<<idBits) + 1 }

// phase2SizeBound resolves the Phase 2 size bound Theorems 10 and 11
// share: zero means max(32, 8·ceil(log2 n)).
func phase2SizeBound(n, sizeBound int) int {
	if sizeBound == 0 {
		return mathx.Max(32, 8*mathx.CeilLog2(n+1))
	}
	return sizeBound
}

// phase2Plan is the Phase 2 part of a Theorem 10 or 11 schedule: the
// deterministic forest q-coloring (Theorem 9) of the shattered components
// and the window of outer steps it owns. The inner machine is built at
// step start, its step k is outer step start+k, and it is harvested at
// step end+1.
type phase2Plan struct {
	forest     forest.Plan
	start, end int
}

// newPhase2Plan plans Phase 2 on components of at most sizeBound vertices
// with idBits-bit random IDs, starting at outer step start.
func newPhase2Plan(n, q, sizeBound, start int) phase2Plan {
	fopt := forest.Options{Q: q, SizeBound: sizeBound, IDSpace: 1 << idBits}
	fplan := forest.NewPlan(fopt.Resolve(n))
	return phase2Plan{forest: fplan, start: start, end: start + fplan.Rounds() + 1}
}

// owns reports whether step lies in the window, where the inner machine
// owns the message channel.
func (p *phase2Plan) owns(step int) bool { return step > p.start && step <= p.end }

// phase2 is the Phase 2 driver Theorems 10 and 11 embed. Only members of
// the forest's vertex set (T10's bad vertices, T11's S) build an inner
// machine. A non-member is done from the start and never sends, and the
// forest machine reads a port that stays silent from its first step on as
// a neighbor outside the forest, so the inner machines color exactly the
// induced subgraph of the members.
type phase2 struct {
	window *phase2Plan // the run's Phase 2 plan, set at startForest
	inner  forestNode  // nil for a non-member and after the harvest
	done   bool        // inner has halted, or was never built
}

// forestNode is the inner forest machine, which sleeps in mail mode.
type forestNode interface {
	sim.Machine
	sim.Sleeper
}

// startForest runs at step plan.start. A member builds its inner machine
// on the run's shared forest plan and relabels it with its random
// identifier id, as speedup's relabel machine does.
func (f *phase2) startForest(plan *phase2Plan, env sim.Env, member bool, id uint64) {
	f.window = plan
	if !member {
		f.done = true
		return
	}
	env.ID, env.HasID = id, true
	f.inner = forest.NewMachine(&plan.forest).(forestNode)
	f.inner.Init(env)
}

// forestStep drives the inner machine at a step the window owns. The
// outer machine stays live to its harvest step whatever the inner does.
// At the inner machine's first step the messages in flight are outer
// statuses from the start step; its hello step reads no mail.
func (f *phase2) forestStep(step int, recv []sim.Message) ([]sim.Message, bool) {
	if f.done {
		return nil, false
	}
	send, done := f.inner.Step(step-f.window.start, recv)
	f.done = done
	return send, false
}

// SleepUntil implements sim.Sleeper. Once the inner machine is done, every
// step up to the harvest step is a no-op whatever arrives, so the vertex
// sleeps there in discard mode. While the inner machine runs, the vertex
// sleeps with it, in its mail mode, to its next slot shifted into the
// window.
func (f *phase2) SleepUntil() (int, bool) {
	switch {
	case f.done:
		return f.window.end + 1, false
	case f.inner != nil:
		w, onMail := f.inner.SleepUntil()
		return f.window.start + w, onMail
	}
	return 0, false
}

// harvestForest runs at step plan.end+1 and returns the color Phase 2 gave
// the vertex, shifted into offset+1..offset+Q, or 0 for a non-member. ok is
// false when the inner machine left a member without a color (its
// component broke the size bound, or random IDs collided): the vertex then
// fails.
func (f *phase2) harvestForest(offset int) (color int, ok bool) {
	if f.inner == nil {
		return 0, true
	}
	color = f.inner.Output().(int)
	f.inner = nil
	if color == 0 {
		return 0, false
	}
	return offset + color, true
}
