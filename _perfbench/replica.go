package main

// The traced sweep replica. It recomputes the rows of each sweep
// experiment by calling the same generators, factory constructors,
// sim.Run and checkers as the harness driver, in the same order and with
// the same random streams, and times each call into a layer from here:
// nothing inside the program is instrumented. Each function mirrors one
// quick-scale driver in internal/harness; traceSweep fails the run when a
// replicated row differs from the driver's row at the same seed.

import (
	"fmt"
	"time"

	"locality/internal/core"
	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/harness"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/shatter"
	"locality/internal/sim"
	"locality/internal/speedup"
	"locality/internal/view"
)

// layers accumulates time and counts per layer. Sweeps run with one
// worker and the sequential engine, so only one goroutine touches it.
type layers struct {
	generate, factory, init, step, kernel, check time.Duration

	generateCalls, initCalls, stepCalls, checkCalls int64
	runs, rounds, messages                          int64
}

// timeIn runs f, adding its duration to *d and one to *calls.
func timeIn[T any](d *time.Duration, calls *int64, f func() T) T {
	start := time.Now()
	v := f()
	*d += time.Since(start)
	if calls != nil {
		*calls++
	}
	return v
}

// generated times one input generator.
func generated[T any](l *layers, f func() T) T { return timeIn(&l.generate, &l.generateCalls, f) }

// build times a factory constructor or a plan built outside sim.Run.
func build[T any](l *layers, f func() T) T { return timeIn(&l.factory, nil, f) }

// checked times one checker call.
func checked[T any](l *layers, f func() T) T { return timeIn(&l.check, &l.checkCalls, f) }

// timedMachine times Init and Step of the machine it wraps.
type timedMachine struct {
	m sim.Machine
	l *layers
}

func (t *timedMachine) Init(env sim.Env) {
	start := time.Now()
	t.m.Init(env)
	t.l.init += time.Since(start)
	t.l.initCalls++
}

func (t *timedMachine) Step(round int, recv []sim.Message) ([]sim.Message, bool) {
	start := time.Now()
	send, done := t.m.Step(round, recv)
	t.l.step += time.Since(start)
	t.l.stepCalls++
	return send, done
}

func (t *timedMachine) Output() any { return t.m.Output() }

// run is sim.Run with the per-node factory calls, Init and Step timed; the
// rest of sim.Run's time is the kernel's.
func (l *layers) run(g sim.Topology, cfg sim.Config, f sim.Factory) (*sim.Result, error) {
	cfg.OnRoundStats = func(s sim.RoundStats) {
		l.rounds++
		l.messages += s.Messages
	}
	wrapped := func() sim.Machine {
		start := time.Now()
		m := f()
		l.factory += time.Since(start)
		return &timedMachine{m: m, l: l}
	}
	inside := l.factory + l.init + l.step
	start := time.Now()
	res, err := sim.Run(g, cfg, wrapped)
	l.kernel += time.Since(start) - (l.factory + l.init + l.step - inside)
	l.runs++
	return res, err
}

// mustRun panics like the harness drivers do on a failed run.
func (l *layers) mustRun(what string, g sim.Topology, cfg sim.Config, f sim.Factory) *sim.Result {
	res, err := l.run(g, cfg, f)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %s: %v", what, err))
	}
	return res
}

func (l *layers) coloringOK(g *graph.Graph, q int, colors []int) string {
	return checked(l, func() string {
		if lcl.Coloring(q).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors)) != nil {
			return "NO"
		}
		return "yes"
	})
}

// replicate recomputes the rows of experiment id at quick scale.
func replicate(id string, seed uint64, l *layers) *harness.Table {
	t := &harness.Table{ID: id}
	switch id {
	case "E1":
		replicaE1(t, seed, l)
	case "E2":
		replicaE2(t, seed, l)
	case "E3":
		replicaE3(t, seed, l)
	case "E5":
		replicaE5(t, seed, l)
	case "E6":
		replicaE6(t, seed, l)
	case "E13":
		replicaE13(t, seed, l)
	default:
		panic("perfbench: no replica for " + id)
	}
	return t
}

func replicaE1(t *harness.Table, seed uint64, l *layers) {
	const delta = 8
	r := rng.New(seed + 1)
	for _, n := range []int{256, 1024, 4096} {
		g := generated(l, func() *graph.Graph { return graph.RandomTree(n, delta, r) })
		assignment := ids.Shuffled(n, r)
		randF := build(l, func() sim.Factory { return core.NewT11Factory(core.T11Options{Delta: delta}) })
		randRes := l.mustRun("E1 rand", g, sim.Config{Randomized: true, Seed: seed + uint64(n), MaxRounds: 1 << 22}, randF)
		randColors := core.Colors(randRes.Outputs)
		detF := build(l, func() sim.Factory { return forest.NewFactory(forest.Options{Q: delta}) })
		detRes := l.mustRun("E1 det", g, sim.Config{IDs: assignment, MaxRounds: 1 << 22}, detF)
		detColors := sim.IntOutputs(detRes)
		t.AddRow(n, delta, randRes.Rounds, l.coloringOK(g, delta, randColors),
			detRes.Rounds, l.coloringOK(g, delta, detColors))
	}
}

func replicaE2(t *harness.Table, seed uint64, l *layers) {
	const n = 1024
	r := rng.New(seed + 2)
	for _, delta := range []int{16, 36, 64, 100} {
		g := generated(l, func() *graph.Graph { return graph.RandomTree(n, delta, r) })
		f := build(l, func() sim.Factory { return core.NewT10Factory(core.T10Options{Delta: delta}) })
		res := l.mustRun("E2", g, sim.Config{Randomized: true, Seed: seed + uint64(delta), MaxRounds: 1 << 22}, f)
		colors := core.Colors(res.Outputs)
		reserve := 0
		for reserve*reserve < delta {
			reserve++
		}
		fplan := build(l, func() forest.Plan {
			return forest.NewPlan(forest.Options{
				Q: reserve, SizeBound: mathx.Max(32, 8*mathx.CeilLog2(n+1)), IDSpace: 1 << 40,
			}.Resolve(n))
		})
		t.AddRow(delta, n, res.Rounds, l.coloringOK(g, delta, colors),
			fplan.Rounds(), len(core.CSequence(delta)))
	}
}

// completeTreeOfSize mirrors the harness helper of the same name.
func completeTreeOfSize(k, n int) *graph.Graph {
	for depth := 1; ; depth++ {
		g := graph.CompleteKAry(k, depth)
		if g.N() >= n || depth > 12 {
			return g
		}
	}
}

func replicaE3(t *harness.Table, seed uint64, l *layers) {
	const seeds = 3
	r := rng.New(seed + 3)
	for _, n := range []int{512, 2048} {
		bound := 8 * mathx.CeilLog2(n+1)
		g := generated(l, func() *graph.Graph { return completeTreeOfSize(35, n) })
		for _, slack := range []int{8, 2} {
			totalBad, maxComp, comps := 0, 0, 0
			for s := 0; s < seeds; s++ {
				f := build(l, func() sim.Factory {
					return core.NewT10Factory(core.T10Options{Delta: 36, PaletteSlack: slack})
				})
				res := l.mustRun("E3 T10", g, sim.Config{Randomized: true, Seed: seed + uint64(n+s), MaxRounds: 1 << 22}, f)
				bad := make([]bool, g.N())
				for v, o := range res.Outputs {
					bad[v] = o.(core.T10Result).Bad
				}
				c := checked(l, func() shatter.Components { return shatter.Analyze(g, bad) })
				totalBad += c.Total
				comps += c.Count
				maxComp = max(maxComp, c.Max)
			}
			t.AddRow(fmt.Sprintf("T10 bad (slack=%d)", slack), g.N(), 36, totalBad, comps, maxComp, bound)
		}
		g2 := generated(l, func() *graph.Graph { return graph.RandomTree(n, 4, r) })
		totalS, maxS, compS := 0, 0, 0
		for s := 0; s < seeds; s++ {
			f := build(l, func() sim.Factory { return core.NewT11Factory(core.T11Options{Delta: 4}) })
			res2 := l.mustRun("E3 T11", g2, sim.Config{Randomized: true, Seed: seed + uint64(n+7*s) + 7, MaxRounds: 1 << 22}, f)
			inS := make([]bool, n)
			for v, o := range res2.Outputs {
				inS[v] = o.(core.T11Result).InS
			}
			c2 := checked(l, func() shatter.Components { return shatter.Analyze(g2, inS) })
			totalS += c2.Total
			compS += c2.Count
			maxS = max(maxS, c2.Max)
		}
		t.AddRow("T11 S", n, 4, totalS, compS, maxS, bound)
	}
}

func replicaE5(t *harness.Table, seed uint64, l *layers) {
	const n, trials = 48, 8
	r := rng.New(seed + 5)
	g := generated(l, func() *graph.Graph { return graph.RandomTree(n, 3, r) })
	for _, bits := range []int{4, 8, 12, 16} {
		factory := build(l, func() sim.Factory {
			palette := speedup.Theorem5Palette(bits, n)
			fopt := forest.Options{Q: 3, SizeBound: n, IDSpace: palette}
			tDet := forest.NewPlan(fopt.Resolve(n)).Rounds()
			return speedup.NewTheorem5Factory(tDet, bits, n, g.MaxDegree(), forest.NewFactory(fopt))
		})
		fails := 0
		arena := &sim.Arena{}
		for i := 0; i < trials; i++ {
			res := l.mustRun("E5", g, sim.Config{Randomized: true, Seed: seed + uint64(bits*1000+i), MaxRounds: 1 << 22, Arena: arena}, factory)
			if l.coloringOK(g, 3, sim.IntOutputs(res)) != "yes" {
				fails++
			}
		}
		t.AddRow(bits, n, fails, trials, float64(fails)/float64(trials),
			ids.CollisionProbabilityBound(n, bits))
	}
}

func replicaE6(t *harness.Table, seed uint64, l *layers) {
	const delta = 4
	mk := speedup.NewSlowColoringFactory(delta, 1, 8)
	tBound := speedup.SlowColoringRounds(delta, 1, 8)
	r := rng.New(seed + 6)
	for _, n := range []int{64, 256} {
		g := generated(l, func() *graph.Graph { return graph.RandomTree(n, delta, r) })
		assignment := ids.Shuffled(n, r)
		bits := mathx.CeilLog2(n + 1)
		plan := build(l, func() speedup.Theorem6Plan { return speedup.NewTheorem6Plan(tBound, delta, bits, 1) })
		f := build(l, func() sim.Factory { return speedup.NewTheorem6Factory(plan, bits, mk(plan.BitsOut)) })
		res := l.mustRun("E6", g, sim.Config{IDs: assignment, MaxRounds: 1 << 22}, f)
		t.AddRow(n, bits, tBound(delta, bits), res.Rounds, plan.BitsOut,
			l.coloringOK(g, delta+1, sim.IntOutputs(res)))
	}
}

type highGirth struct {
	g   *graph.EdgeColoredGraph
	err error
}

func (h highGirth) unpack() (*graph.EdgeColoredGraph, error) { return h.g, h.err }

func replicaE13(t *harness.Table, seed uint64, l *layers) {
	const half, d = 64, 3
	r := rng.New(seed + 12)
	for _, minGirth := range []int{6, 8} {
		ecg, err := generated(l, func() highGirth {
			g, err := graph.HighGirthRegular(half, d, minGirth, 500, r)
			return highGirth{g, err}
		}).unpack()
		if err != nil {
			continue // the driver notes the skip and adds no row
		}
		tRounds := (minGirth - 2) / 2
		f := build(l, func() sim.Factory { return view.NewCollectMachineFactory(tRounds, nil) })
		res := l.mustRun("E13", ecg.Graph, sim.Config{IDs: ids.Sequential(ecg.N())}, f)
		allTrees := checked(l, func() string {
			for v := 0; v < ecg.N(); v++ {
				ballVerts := ecg.BallVertices(v, tRounds)
				keep := make([]bool, ecg.N())
				for _, u := range ballVerts {
					keep[u] = true
				}
				sub, _, _ := ecg.InducedSubgraph(keep)
				if !sub.IsTree() {
					return "NO"
				}
				if res.Outputs[v].(*view.Ball).N() != len(ballVerts) {
					return "NO (collection mismatch)"
				}
			}
			return "yes"
		})
		t.AddRow(ecg.N(), d, minGirth, tRounds, ecg.N(), allTrees)
	}
}
