package fault_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"locality/internal/fault"
	"locality/internal/graph"
	"locality/internal/mis"
	"locality/internal/rng"
	"locality/internal/sim"
)

// clampProb folds an arbitrary fuzzed float into a valid probability.
func clampProb(p float64) float64 {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0
	}
	return math.Mod(math.Abs(p), 1)
}

// FuzzFaultPlan fuzzes the determinism contract of the fault layer: for any
// plan parameters and any run seed, (a) the crash schedule is a pure
// function of the plan, and (b) the sequential and concurrent engines
// produce identical results under the injected faults — the engine
// equivalence guarantee does not have a faulty-run exception. Found
// divergences would mean scheduling nondeterminism leaking into the fault
// schedule, exactly the class of bug the seeded Mix64 salting exists to
// prevent.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), uint64(2), 0.1, 0.05, 0.05, uint8(20), uint8(4), uint8(3), uint8(1))
	f.Add(uint64(7), uint64(0), 0.0, 0.0, 0.0, uint8(2), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(0xdead), uint64(0xbeef), 0.9, 0.5, 0.5, uint8(60), uint8(6), uint8(1), uint8(2))
	f.Add(uint64(42), uint64(42), 0.25, 1.0, 0.0, uint8(33), uint8(3), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, planSeed, runSeed uint64,
		crashFrac, dropProb, dupProb float64, nRaw, degRaw, crashRound, fromRound uint8) {
		n := 2 + int(nRaw)%48
		deg := 2 + int(degRaw)%5
		g := graph.RandomTree(n, deg, rng.New(planSeed^rng.Mix64(runSeed, 1)))
		plan := fault.Plan{
			Seed:       planSeed,
			CrashFrac:  clampProb(crashFrac),
			CrashRound: int(crashRound) % 6,
			DropProb:   clampProb(dropProb),
			DupProb:    clampProb(dupProb),
			FromRound:  int(fromRound) % 4,
		}

		// (a) The crash schedule is deterministic: a value copy of the plan
		// selects the same victims, call after call.
		clone := plan
		for v := 0; v < n; v++ {
			if plan.Crashed(v) != plan.Crashed(v) || plan.Crashed(v) != clone.Crashed(v) {
				t.Fatalf("Crashed(%d) is not a pure function of the plan", v)
			}
		}

		// (b) Same plan + same run seed ⇒ same result, within an engine
		// (repeatability) and across engines (equivalence).
		run := func(engine sim.Engine) (*sim.Result, error) {
			cfg := sim.Config{
				Randomized: true,
				Seed:       runSeed,
				MaxRounds:  1 << 11,
				Engine:     engine,
			}
			return sim.Run(g, cfg, plan.Wrap(g, mis.NewLubyFactory()))
		}
		seq1, err1 := run(sim.EngineSequential)
		seq2, err2 := run(sim.EngineSequential)
		conc, err3 := run(sim.EngineConcurrent)

		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
			t.Fatalf("error disagreement: seq=%v, seq-again=%v, conc=%v", err1, err2, err3)
		}
		if err1 != nil {
			// Failures must classify identically (a crashed quorum can
			// starve the round budget; both engines must say so the same
			// way).
			if errors.Is(err1, sim.ErrMaxRounds) != errors.Is(err3, sim.ErrMaxRounds) {
				t.Fatalf("failure classification diverges: seq=%v, conc=%v", err1, err3)
			}
			return
		}
		if !reflect.DeepEqual(seq1, seq2) {
			t.Fatalf("sequential engine not repeatable under plan %+v", plan)
		}
		if !reflect.DeepEqual(seq1, conc) {
			t.Fatalf("engines diverge under plan %+v:\nseq:  %+v\nconc: %+v", plan, seq1, conc)
		}
	})
}
