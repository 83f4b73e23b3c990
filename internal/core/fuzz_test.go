package core_test

import (
	"testing"

	"locality/internal/core"
	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// FuzzQuietEngines runs the machines that the sequential engine lets
// sleep on random trees under both engines: T10, whose final vertices send
// once and rest in discard mode; T11 at small Δ, where the shattered set S
// is often non-empty and sleeps through Phase 2 with its forest machine;
// and the forest coloring on its own, which resends only before Linial
// steps and sleeps between its slots in mail mode. Each input must give
// the same Result and RoundStats sequence on both: a status sent to a
// vertex that should have read it, but slept through it, shows up as a
// difference.
func FuzzQuietEngines(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(4), uint64(1), uint16(200))
	f.Add(uint8(36), uint8(2), uint8(3), uint64(2), uint16(250))
	f.Add(uint8(9), uint8(1), uint8(9), uint64(3), uint16(60))
	f.Add(uint8(20), uint8(20), uint8(5), uint64(4), uint16(1))
	f.Fuzz(func(t *testing.T, delta, slack, q uint8, seed uint64, n uint16) {
		// The concurrent engine runs one goroutine per node: keep n small.
		size := 1 + int(n)%256
		d := 9 + int(delta)%32 // T10 needs Δ >= 9
		g := graph.RandomTree(size, d, rng.New(seed))
		engineResults(t, g, randomized(seed),
			core.NewT10Factory(core.T10Options{Delta: d, PaletteSlack: 1 + int(slack)%16}))

		d11 := 4 + int(delta)%3 // Δ = 4..6, where Phase 1 leaves S non-empty
		g11 := graph.RandomTree(size, d11, rng.New(seed+3))
		engineResults(t, g11, randomized(seed), core.NewT11Factory(core.T11Options{Delta: d11}))

		fq := 3 + int(q)%8
		tree := graph.RandomTree(size, 2+int(seed%8), rng.New(seed+1))
		cfg := sim.Config{IDs: ids.Shuffled(size, rng.New(seed+2)), MaxRounds: 1 << 20}
		engineResults(t, tree, cfg, forest.NewFactory(forest.Options{Q: fq}))
	})
}
