package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

var _ sim.Topology = (*graph.Graph)(nil)

// floodMin floods the minimum ID; every node halts once its view of the
// minimum is stable for diameter rounds. Used as a canonical multi-round
// algorithm for kernel tests (the output is the global min ID, and the round
// count is related to eccentricity).
type floodMin struct {
	env   sim.Env
	min   uint64
	known int // rounds since last improvement
	limit int
	send  []sim.Message
}

func newFloodMin(limit int) sim.Factory {
	return func() sim.Machine {
		return &floodMin{limit: limit}
	}
}

func (m *floodMin) Init(env sim.Env) {
	m.env = env
	m.min = env.ID
}

func (m *floodMin) Step(round int, recv []sim.Message) ([]sim.Message, bool) {
	improved := false
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		if id := msg.(uint64); id < m.min {
			m.min = id
			improved = true
		}
	}
	if improved {
		m.known = 0
	} else {
		m.known++
	}
	if m.known >= m.limit {
		return nil, true
	}
	return sim.BroadcastInto(&m.send, m.env.Degree, m.min), false
}

func (m *floodMin) Output() any { return m.min }

func TestFloodMinBothEngines(t *testing.T) {
	g := graph.Path(10)
	assignment := ids.Assignment{7, 3, 9, 1, 12, 14, 5, 8, 20, 11}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		res, err := sim.Run(g, sim.Config{IDs: assignment, Engine: engine}, newFloodMin(12))
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		for v, o := range res.Outputs {
			if o.(uint64) != 1 {
				t.Errorf("engine %v: node %d output %v, want 1", engine, v, o)
			}
		}
		if res.Rounds == 0 || res.MessagesSent == 0 {
			t.Errorf("engine %v: suspicious accounting %+v", engine, res)
		}
	}
}

func TestEnginesProduceIdenticalResults(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 10; trial++ {
		g := graph.UniformTree(40, r)
		assignment := ids.Shuffled(40, r)
		seq, err := sim.Run(g, sim.Config{IDs: assignment, Engine: sim.EngineSequential}, newFloodMin(8))
		if err != nil {
			t.Fatal(err)
		}
		conc, err := sim.Run(g, sim.Config{IDs: assignment, Engine: sim.EngineConcurrent}, newFloodMin(8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Outputs, conc.Outputs) {
			t.Fatalf("trial %d: outputs differ between engines", trial)
		}
		if seq.Rounds != conc.Rounds {
			t.Fatalf("trial %d: rounds differ: seq=%d conc=%d", trial, seq.Rounds, conc.Rounds)
		}
		if seq.MessagesSent != conc.MessagesSent {
			t.Fatalf("trial %d: message counts differ: seq=%d conc=%d", trial, seq.MessagesSent, conc.MessagesSent)
		}
	}
}

func TestRandomizedEnginesAgree(t *testing.T) {
	// A randomized machine must see the same per-node stream in both engines.
	factory := func() sim.Machine {
		var env sim.Env
		var draw uint64
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				draw = env.Rand.Uint64()
				return nil, true
			},
			OnOutput: func() any { return draw },
		}
	}
	g := graph.Ring(15)
	seq, err := sim.Run(g, sim.Config{Randomized: true, Seed: 5, Engine: sim.EngineSequential}, factory)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := sim.Run(g, sim.Config{Randomized: true, Seed: 5, Engine: sim.EngineConcurrent}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outputs, conc.Outputs) {
		t.Error("randomized outputs differ between engines")
	}
}

func TestDuplicateIDsRejected(t *testing.T) {
	g := graph.Path(3)
	_, err := sim.Run(g, sim.Config{IDs: ids.Assignment{1, 1, 2}}, newFloodMin(3))
	if err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestIDLengthMismatchRejected(t *testing.T) {
	g := graph.Path(3)
	_, err := sim.Run(g, sim.Config{IDs: ids.Assignment{1, 2}}, newFloodMin(3))
	if err == nil {
		t.Fatal("short ID table accepted")
	}
}

func TestInputLengthMismatchRejected(t *testing.T) {
	g := graph.Path(3)
	_, err := sim.Run(g, sim.Config{Inputs: []any{1}}, newFloodMin(3))
	if err == nil {
		t.Fatal("short input table accepted")
	}
}

func TestMaxRoundsEnforced(t *testing.T) {
	g := graph.Path(4)
	never := func() sim.Machine {
		return &sim.FuncMachine{
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				return nil, false // never halts
			},
		}
	}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{MaxRounds: 7, Engine: engine}, never)
		if !errors.Is(err, sim.ErrMaxRounds) {
			t.Errorf("engine %v: error = %v, want ErrMaxRounds", engine, err)
		}
	}
}

func TestHaltedNodeStopsSending(t *testing.T) {
	// Node halts at round 1 sending a token; its neighbor must receive the
	// token at round 2 and then silence (nil) at round 3.
	g := graph.Path(2)
	type record struct {
		gotRound2 sim.Message
		gotRound3 sim.Message
	}
	factory := func() sim.Machine {
		var env sim.Env
		var send []sim.Message
		rec := &record{}
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				if env.ID == 1 {
					// Halts immediately, final message still delivered.
					return sim.BroadcastInto(&send, env.Degree, "token"), true
				}
				switch round {
				case 2:
					rec.gotRound2 = recv[0]
				case 3:
					rec.gotRound3 = recv[0]
					return nil, true
				}
				return nil, false
			},
			OnOutput: func() any { return rec },
		}
	}
	res, err := sim.Run(g, sim.Config{IDs: ids.Assignment{1, 2}}, factory)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Outputs[1].(*record)
	if rec.gotRound2 != "token" {
		t.Errorf("round 2 message = %v, want token", rec.gotRound2)
	}
	if rec.gotRound3 != nil {
		t.Errorf("round 3 message = %v, want nil (halted sender)", rec.gotRound3)
	}
	if res.HaltRound[0] != 0 {
		t.Errorf("HaltRound[0] = %d, want 0 (halted at first step)", res.HaltRound[0])
	}
}

func TestRoundsIsMaxHaltRound(t *testing.T) {
	g := graph.Path(5)
	factory := func() sim.Machine {
		var env sim.Env
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				return nil, round >= int(env.ID) // node with ID k halts at round k
			},
		}
	}
	res, err := sim.Run(g, sim.Config{IDs: ids.Assignment{1, 2, 3, 4, 5}}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4 (last halt at step 5)", res.Rounds)
	}
	for v, hr := range res.HaltRound {
		if hr != v {
			t.Errorf("HaltRound[%d] = %d, want %d", v, hr, v)
		}
	}
}

func TestMessageToCorrectPort(t *testing.T) {
	// Star: center must see each leaf's ID on the correct port.
	g := graph.Star(4)
	factory := func() sim.Machine {
		var env sim.Env
		var send, seen []sim.Message
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				if round == 1 {
					return sim.BroadcastInto(&send, env.Degree, env.ID), false
				}
				seen = append([]sim.Message(nil), recv...)
				return nil, true
			},
			OnOutput: func() any { return seen },
		}
	}
	assignment := ids.Assignment{10, 21, 22, 23}
	res, err := sim.Run(g, sim.Config{IDs: assignment}, factory)
	if err != nil {
		t.Fatal(err)
	}
	centerSeen := res.Outputs[0].([]sim.Message)
	for p, msg := range centerSeen {
		to, _ := g.NeighborPort(0, p)
		if msg.(uint64) != assignment[to] {
			t.Errorf("port %d saw %v, want %d", p, msg, assignment[to])
		}
	}
}

func TestOversendStructuredError(t *testing.T) {
	g := graph.Path(2)
	bad := func() sim.Machine {
		return &sim.FuncMachine{
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				return make([]sim.Message, 5), true // degree is 1
			},
		}
	}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine}, bad)
		if !errors.Is(err, sim.ErrOverSend) {
			t.Fatalf("engine %v: error = %v, want ErrOverSend", engine, err)
		}
		var ne *sim.NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("engine %v: error %v is not a *NodeError", engine, err)
		}
		if ne.Node != 0 || ne.Round != 1 {
			t.Errorf("engine %v: fault at node %d round %d, want node 0 round 1", engine, ne.Node, ne.Round)
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.Path(1)
	res, err := sim.Run(g, sim.Config{IDs: ids.Assignment{1}}, newFloodMin(1))
	if err != nil {
		t.Fatal(err)
	}
	// A single vertex needs no communication: a 0-round algorithm.
	if res.Outputs[0].(uint64) != 1 || res.Rounds != 0 {
		t.Errorf("single vertex run wrong: %+v", res)
	}
}

func TestIntOutputs(t *testing.T) {
	res := &sim.Result{Outputs: []any{1, 2, 3}}
	got := sim.IntOutputs(res)
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("IntOutputs = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntOutputs on mixed types did not panic")
		}
	}()
	sim.IntOutputs(&sim.Result{Outputs: []any{1, "x"}})
}

func TestPlanMemoBuildsOncePerGraphShape(t *testing.T) {
	builds := 0
	memo := sim.NewPlanMemo(func(n, maxDeg int) [2]int {
		builds++
		return [2]int{n, maxDeg}
	})
	a := memo.Get(sim.Env{N: 10, MaxDeg: 3, Degree: 1})
	if b := memo.Get(sim.Env{N: 10, MaxDeg: 3, Degree: 3, ID: 7}); b != a {
		t.Error("a second node of the same run got a different plan")
	}
	if builds != 1 {
		t.Errorf("%d builds for one graph shape, want 1", builds)
	}
	for _, env := range []sim.Env{{N: 20, MaxDeg: 3}, {N: 20, MaxDeg: 4}} {
		if p := memo.Get(env); *p != [2]int{env.N, env.MaxDeg} {
			t.Errorf("Get(N=%d, MaxDeg=%d) = %v", env.N, env.MaxDeg, *p)
		}
	}
	if builds != 3 {
		t.Errorf("%d builds for three graph shapes, want 3", builds)
	}
}

// TestPlanMemoConcurrentInit shares one memo across every node of a
// concurrent-engine run: under -race the parallel Inits must neither race
// nor see two plans.
func TestPlanMemoConcurrentInit(t *testing.T) {
	g := graph.RandomTree(64, 4, rng.New(3))
	memo := sim.NewPlanMemo(func(n, _ int) []int { return make([]int, n) })
	plans := make([]*[]int, g.N())
	f := func() sim.Machine {
		return &sim.FuncMachine{
			OnInit: func(env sim.Env) { plans[env.Node] = memo.Get(env) },
			OnStep: func(int, []sim.Message) ([]sim.Message, bool) { return nil, true },
		}
	}
	if _, err := sim.Run(g, sim.Config{Engine: sim.EngineConcurrent}, f); err != nil {
		t.Fatal(err)
	}
	for v, p := range plans {
		if p != plans[0] {
			t.Fatalf("node %d holds plan %p, node 0 holds %p", v, p, plans[0])
		}
	}
	if len(*plans[0]) != g.N() {
		t.Errorf("plan built for n=%d, graph has %d vertices", len(*plans[0]), g.N())
	}
}

// TestPlanMemoBuildPanicRepeats checks that a plan build that panics (a
// caller error such as an impossible option) fails every node that asks,
// not only the first.
func TestPlanMemoBuildPanicRepeats(t *testing.T) {
	memo := sim.NewPlanMemo(func(n, _ int) int { panic("bad options") })
	for node := 0; node < 2; node++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("node %d got a plan from a build that panicked", node)
				}
			}()
			memo.Get(sim.Env{N: 5})
		}()
	}
}
