package core

import (
	"locality/internal/forest"
	"locality/internal/mathx"
	"locality/internal/sim"
)

// phase2Defaults fills the Phase 2 options Theorems 10 and 11 share: a
// zero size bound means max(32, 8·ceil(log2 n)) and zero ID bits mean 40.
func phase2Defaults(n int, sizeBound, idBits *int) {
	if *sizeBound == 0 {
		*sizeBound = mathx.Max(32, 8*mathx.CeilLog2(n+1))
	}
	if *idBits == 0 {
		*idBits = 40
	}
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
func newPhase2Plan(n, q, sizeBound, idBits, start int) phase2Plan {
	fopt := forest.Options{Q: q, SizeBound: sizeBound, IDSpace: 1 << idBits}
	fplan := forest.NewPlan(fopt.Resolve(n))
	return phase2Plan{forest: fplan, start: start, end: start + fplan.Rounds() + 1}
}

// owns reports whether step lies in the window, where the inner machine
// owns the message channel.
func (p *phase2Plan) owns(step int) bool { return step > p.start && step <= p.end }

// phase2 is the Phase 2 driver Theorems 10 and 11 embed. Only members of
// the forest's vertex set (T10's bad vertices, T11's S) build an inner
// machine: outside the forest's induced subgraph it would halt at its
// first step, sending nothing and drawing no randomness, so a non-member
// is done from the start.
type phase2 struct {
	window *phase2Plan // the run's Phase 2 plan, set at startForest
	inner  sim.Machine // nil for a non-member and after the harvest
	done   bool        // inner has halted, or was never built
}

// startForest runs at step plan.start. A member builds its inner machine
// on the run's shared forest plan, with identifier id and the output
// colors offset+1..offset+Q.
func (f *phase2) startForest(plan *phase2Plan, env sim.Env, member bool, id uint64, offset int) {
	f.window = plan
	if !member {
		f.done = true
		return
	}
	f.inner = forest.NewMachine(&plan.forest, forest.Options{
		ColorOffset: offset,
		IDOf:        func(sim.Env) uint64 { return id },
	})
	f.inner.Init(env)
}

// forestStep drives the inner machine at a step the window owns. The
// outer machine stays live to its harvest step whatever the inner does.
func (f *phase2) forestStep(step int, recv []sim.Message) ([]sim.Message, bool) {
	if f.done {
		return nil, false
	}
	local := step - f.window.start
	if local == 1 {
		// The messages in flight are outer statuses from the start step;
		// the inner machine's first step consumes nothing.
		recv = make([]sim.Message, len(recv))
	}
	send, done := f.inner.Step(local, recv)
	f.done = done
	return send, false
}

// SleepUntil implements sim.Sleeper: once the inner machine is done, every
// step up to the harvest step is a no-op.
func (f *phase2) SleepUntil() int {
	if f.done {
		return f.window.end + 1
	}
	return 0
}

// harvestForest runs at step plan.end+1 and returns the color Phase 2 gave
// the vertex, 0 for a non-member. ok is false when the inner machine left a
// member without a color (its component broke the size bound, or random
// IDs collided): the vertex then fails.
func (f *phase2) harvestForest() (color int, ok bool) {
	if f.inner == nil {
		return 0, true
	}
	color = f.inner.Output().(int)
	f.inner = nil
	return color, color != 0
}
