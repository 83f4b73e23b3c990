package speedup

import (
	"slices"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/view"
)

// scanNeighbors is the per-vertex reference for ballNeighbors: an enriched
// vertex lists its ports' ball neighbors, a bare one every enriched vertex
// with a port pointing at it, found by scanning the whole ball.
func scanNeighbors(b *view.Ball, u int) []int {
	var nbrs []int
	if b.Recs[u].Ports != nil {
		for _, pl := range b.Recs[u].Ports {
			if w := b.LocalIndex(pl.Name); w >= 0 {
				nbrs = append(nbrs, w)
			}
		}
		return nbrs
	}
	for w, wrec := range b.Recs {
		for _, pl := range wrec.Ports {
			if b.LocalIndex(pl.Name) == u {
				nbrs = append(nbrs, w)
				break
			}
		}
	}
	return nbrs
}

// TestBallNeighborsMatchesScan compares the one-pass neighbor lists with
// the per-vertex scan on balls collected under IDs and under colliding
// 3-bit random names.
func TestBallNeighborsMatchesScan(t *testing.T) {
	r := rng.New(11)
	ecg, err := graph.HighGirthRegular(24, 3, 6, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{graph.RandomTree(80, 4, r), ecg.Graph}
	names := map[string]func(env sim.Env) uint64{
		"ids":    nil,
		"names3": func(env sim.Env) uint64 { return env.Rand.Uint64()%8 + 1 },
	}
	for gi, g := range graphs {
		for label, name := range names {
			for radius := 1; radius <= 4; radius++ {
				cfg := sim.Config{Randomized: true, Seed: uint64(gi*10 + radius)}
				if name == nil {
					cfg.IDs = ids.Sequential(g.N())
				}
				res, err := sim.Run(g, cfg, view.NewCollectMachineFactory(radius, name))
				if err != nil {
					t.Fatal(err)
				}
				for v, out := range res.Outputs {
					b := out.(*view.Ball)
					got := ballNeighbors(b)
					for u := range got {
						if want := scanNeighbors(b, u); !slices.Equal(got[u], want) {
							t.Fatalf("graph %d/%s/t=%d vertex %d: ball vertex %d lists %v, scan %v",
								gi, label, radius, v, u, got[u], want)
						}
					}
				}
			}
		}
	}
}
