package fault_test

import (
	"reflect"
	"testing"

	"locality/internal/fault"
	"locality/internal/graph"
	"locality/internal/lcl"
	"locality/internal/mis"
	"locality/internal/rng"
	"locality/internal/sim"
)

// echoOnce sends a token at step 1 and records what arrives at every later
// step, halting at the given step. It makes drops and stale redelivery
// directly observable.
func echoOnce(haltStep int) sim.Factory {
	return func() sim.Machine {
		var env sim.Env
		var got [][]sim.Message
		var send []sim.Message
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				got = append(got, append([]sim.Message(nil), recv...))
				if round == 1 {
					return sim.BroadcastInto(&send, env.Degree, "token"), false
				}
				return nil, round >= haltStep
			},
			OnOutput: func() any { return got },
		}
	}
}

func TestZeroPlanIsPassThrough(t *testing.T) {
	g := graph.Ring(8)
	var plan fault.Plan
	base := echoOnce(3)
	if reflect.ValueOf(plan.Wrap(g, base)).Pointer() != reflect.ValueOf(base).Pointer() {
		t.Error("inactive plan did not return the factory unchanged")
	}
}

func TestCrashStopHaltsSilently(t *testing.T) {
	// Path 0-1-2; node 1 crashes at round 2: its step-1 token is delivered,
	// then silence. Node 0 and 2 must see the token at step 2 and nil after.
	g := graph.Path(3)
	plan := fault.Plan{Crash: []int{1}, CrashRound: 2}
	res, err := sim.Run(g, sim.Config{MaxRounds: 8}, plan.Wrap(g, echoOnce(4)))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].([][]sim.Message)
	if got[1][0] != "token" {
		t.Errorf("step 2 at node 0: %v, want token (sent before the crash)", got[1][0])
	}
	for s := 2; s < len(got); s++ {
		if got[s][0] != nil {
			t.Errorf("step %d at node 0: %v, want nil (crashed neighbor)", s+1, got[s][0])
		}
	}
	if res.HaltRound[1] != 1 {
		t.Errorf("crash victim halted after %d rounds, want 1", res.HaltRound[1])
	}
}

func TestCrashFracDeterministic(t *testing.T) {
	plan := fault.Plan{Seed: 7, CrashFrac: 0.3}
	n, crashed := 1000, 0
	for v := 0; v < n; v++ {
		if plan.Crashed(v) {
			crashed++
		}
		if plan.Crashed(v) != plan.Crashed(v) {
			t.Fatal("Crashed is not deterministic")
		}
	}
	if crashed < n/5 || crashed > n/2 {
		t.Errorf("crash sample %d/%d far from the 30%% rate", crashed, n)
	}
	other := fault.Plan{Seed: 8, CrashFrac: 0.3}
	same := 0
	for v := 0; v < n; v++ {
		if plan.Crashed(v) == other.Crashed(v) {
			same++
		}
	}
	if same == n {
		t.Error("different seeds selected identical crash sets")
	}
}

func TestDropAllSeversLinks(t *testing.T) {
	g := graph.Path(2)
	plan := fault.Plan{DropProb: 1}
	res, err := sim.Run(g, sim.Config{MaxRounds: 8}, plan.Wrap(g, echoOnce(3)))
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range res.Outputs {
		for s, recv := range o.([][]sim.Message) {
			if recv[0] != nil {
				t.Errorf("node %d step %d received %v despite DropProb 1", v, s+1, recv[0])
			}
		}
	}
	// The kernel still counts the sends: drops happen in transit, not at
	// the sender.
	if res.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", res.MessagesSent)
	}
}

func TestStaleRedelivery(t *testing.T) {
	// With DupProb 1 and no drops, the step-1 token is redelivered on every
	// later round even though the sender went quiet.
	g := graph.Path(2)
	plan := fault.Plan{DupProb: 1}
	res, err := sim.Run(g, sim.Config{MaxRounds: 8}, plan.Wrap(g, echoOnce(4)))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].([][]sim.Message)
	for s := 1; s < len(got); s++ {
		if got[s][0] != "token" {
			t.Errorf("step %d: %v, want the stale token redelivered", s+1, got[s][0])
		}
	}
}

func TestDropFromRoundExemptsSetup(t *testing.T) {
	g := graph.Path(2)
	plan := fault.Plan{DropProb: 1, FromRound: 2}
	res, err := sim.Run(g, sim.Config{MaxRounds: 8}, plan.Wrap(g, echoOnce(3)))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].([][]sim.Message)
	if got[1][0] != "token" {
		t.Errorf("step-1 sends must be exempt with FromRound 2; got %v", got[1][0])
	}
}

// TestEngineEquivalenceUnderFaults is the faulty-run extension of the
// kernel's engine-equivalence guarantee: the same seeded Plan must produce
// identical Results on both engines.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomTree(60, 6, r)
		plan := fault.Plan{
			Seed:       uint64(1000 + trial),
			CrashFrac:  0.08,
			CrashRound: 3,
			DropProb:   0.05,
			DupProb:    0.05,
		}
		factory := plan.Wrap(g, mis.NewLubyFactory())
		cfg := sim.Config{Randomized: true, Seed: uint64(trial), MaxRounds: 1 << 12}
		cfg.Engine = sim.EngineSequential
		seq, err := sim.Run(g, cfg, factory)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		cfg.Engine = sim.EngineConcurrent
		conc, err := sim.Run(g, cfg, factory)
		if err != nil {
			t.Fatalf("trial %d concurrent: %v", trial, err)
		}
		if !reflect.DeepEqual(seq, conc) {
			t.Fatalf("trial %d: faulty runs diverge between engines:\nseq:  %+v\nconc: %+v", trial, seq, conc)
		}
	}
}

// TestFaultyRunsDegradeVisibly: a crashed quorum must show up as LCL
// violations, never as a silently-accepted wrong answer.
func TestFaultyRunsDegradeVisibly(t *testing.T) {
	r := rng.New(5)
	g := graph.RandomTree(200, 5, r)
	plan := fault.Plan{Seed: 3, CrashFrac: 0.2, CrashRound: 2}
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 11, MaxRounds: 1 << 12},
		plan.Wrap(g, mis.NewLubyFactory()))
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]any, g.N())
	for v, o := range res.Outputs {
		labels[v] = o
	}
	rep := lcl.MIS().Violations(lcl.Instance{G: g}, labels)
	if rep.Violated == 0 {
		t.Error("20% crashed nodes produced zero MIS violations — degradation invisible")
	}
	if frac := rep.SatisfiedFraction(); frac <= 0 || frac >= 1 {
		t.Errorf("satisfied fraction = %v, want strictly between 0 and 1", frac)
	}
}
