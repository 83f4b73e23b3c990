package sim_test

// Hardening suite: misbehaving machines (panics, over-degree sends),
// cooperative cancellation, runs stuck inside Step, and goroutine hygiene.
// Both engines must report identical structured errors for identical
// misbehavior, and aborted concurrent runs must not leak goroutines.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"locality/internal/graph"
	"locality/internal/sim"
)

// panicAt returns a factory whose machine panics at the given step on the
// node with the given index (via Env.Node, which tests may inspect).
func panicAt(node, step int) sim.Factory {
	return func() sim.Machine {
		var env sim.Env
		var send []sim.Message
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				if env.Node == node && round == step {
					panic("boom")
				}
				return sim.BroadcastInto(&send, env.Degree, round), false
			},
		}
	}
}

func neverHalt() sim.Machine {
	return &sim.FuncMachine{
		OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
			return nil, false
		},
	}
}

func TestStepPanicStructured(t *testing.T) {
	g := graph.Ring(6)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 10}, panicAt(3, 4))
		if !errors.Is(err, sim.ErrNodePanic) {
			t.Fatalf("engine %v: error = %v, want ErrNodePanic", engine, err)
		}
		var ne *sim.NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("engine %v: not a *NodeError: %v", engine, err)
		}
		if ne.Node != 3 || ne.Round != 4 {
			t.Errorf("engine %v: fault at node %d round %d, want node 3 round 4", engine, ne.Node, ne.Round)
		}
		if ne.Value != "boom" {
			t.Errorf("engine %v: panic value = %v, want boom", engine, ne.Value)
		}
		if len(ne.Stack) == 0 {
			t.Errorf("engine %v: no stack captured", engine)
		}
	}
}

func TestEnginesReportIdenticalFaults(t *testing.T) {
	// Two nodes misbehave in the same round: both engines must pick the
	// same (round, node)-minimal fault.
	g := graph.Ring(8)
	factory := func() sim.Machine {
		var env sim.Env
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				if round == 3 && (env.Node == 5 || env.Node == 2) {
					panic(env.Node)
				}
				return nil, false
			},
		}
	}
	var faults []*sim.NodeError
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 10}, factory)
		var ne *sim.NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("engine %v: %v", engine, err)
		}
		faults = append(faults, ne)
	}
	seq, conc := faults[0], faults[1]
	if seq.Node != conc.Node || seq.Round != conc.Round || seq.Value != conc.Value {
		t.Errorf("engines disagree: seq=(node %d, round %d, %v) conc=(node %d, round %d, %v)",
			seq.Node, seq.Round, seq.Value, conc.Node, conc.Round, conc.Value)
	}
	if seq.Node != 2 || seq.Round != 3 {
		t.Errorf("fault = (node %d, round %d), want the minimal (node 2, round 3)", seq.Node, seq.Round)
	}
}

func TestInitPanicStructured(t *testing.T) {
	g := graph.Path(4)
	factory := func() sim.Machine {
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) {
				if e.Node == 1 {
					panic("bad init")
				}
			},
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) { return nil, true },
		}
	}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine}, factory)
		var ne *sim.NodeError
		if !errors.As(err, &ne) || !errors.Is(err, sim.ErrNodePanic) {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if ne.Node != 1 || ne.Round != 0 {
			t.Errorf("engine %v: fault (node %d, round %d), want (1, 0)", engine, ne.Node, ne.Round)
		}
	}
}

func TestOutputPanicStructured(t *testing.T) {
	g := graph.Path(3)
	factory := func() sim.Machine {
		var env sim.Env
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) { return nil, true },
			OnOutput: func() any {
				if env.Node == 2 {
					panic("bad output")
				}
				return nil
			},
		}
	}
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine}, factory)
		var ne *sim.NodeError
		if !errors.As(err, &ne) || !errors.Is(err, sim.ErrNodePanic) {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if ne.Node != 2 || ne.Round != -1 {
			t.Errorf("engine %v: fault (node %d, round %d), want (2, -1)", engine, ne.Node, ne.Round)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := graph.Ring(16)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		startT := time.Now()
		_, err := sim.RunContext(ctx, g, sim.Config{Engine: engine, MaxRounds: 1 << 30}, func() sim.Machine { return neverHalt() })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: error = %v, want wrapped context.Canceled", engine, err)
		}
		if elapsed := time.Since(startT); elapsed > 2*time.Second {
			t.Errorf("engine %v: cancellation took %v", engine, elapsed)
		}
	}
}

func TestNoGoroutineLeakOnAbort(t *testing.T) {
	g := graph.Ring(32)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := sim.RunContext(ctx, g, sim.Config{Engine: sim.EngineConcurrent, MaxRounds: 1 << 30},
			func() sim.Machine { return neverHalt() })
		cancel()
		if err == nil {
			t.Fatal("run with expired context succeeded")
		}
	}
	// Node goroutines exit via the abort channel; give the scheduler a
	// moment to run their deferred wg.Done paths before counting.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after aborted runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNoGoroutineLeakOnNodeFault(t *testing.T) {
	g := graph.Ring(32)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		_, err := sim.Run(g, sim.Config{Engine: sim.EngineConcurrent, MaxRounds: 64}, panicAt(7, 3))
		if !errors.Is(err, sim.ErrNodePanic) {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after faulted runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMaxRoundsBothEnginesStructured(t *testing.T) {
	// ErrMaxRounds must carry the budget and remain errors.Is-testable on
	// both engines (regression companion to TestMaxRoundsEnforced).
	g := graph.Ring(6)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, err := sim.Run(g, sim.Config{Engine: engine, MaxRounds: 3}, func() sim.Machine { return neverHalt() })
		if !errors.Is(err, sim.ErrMaxRounds) {
			t.Fatalf("engine %v: %v", engine, err)
		}
	}
}

func TestDeadlockedRunAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the abort grace period")
	}
	// One machine blocks forever inside Step on the concurrent engine. The
	// context's timeout must still abort the run: it returns after the
	// abort grace period, with an error noting the unreapable goroutine,
	// instead of hanging the caller forever.
	g := graph.Path(3)
	stuck := func() sim.Machine {
		var env sim.Env
		return &sim.FuncMachine{
			OnInit: func(e sim.Env) { env = e },
			OnStep: func(round int, recv []sim.Message) ([]sim.Message, bool) {
				if env.Node == 1 {
					select {} // deadlock
				}
				return nil, false
			},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := sim.RunContext(ctx, g, sim.Config{Engine: sim.EngineConcurrent, MaxRounds: 1 << 30}, stuck)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error = %v, want wrapped context.DeadlineExceeded", err)
		}
	case <-time.After(sim.AbortGrace + 3*time.Second):
		t.Fatal("deadlocked run hung instead of aborting")
	}
}
