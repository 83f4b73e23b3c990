// Package sim is the LOCAL-model simulator kernel.
//
// It implements the model of Linial [4] exactly as the paper states it
// (Section I): the graph is the communication topology; every vertex hosts a
// processor running the same algorithm; computation proceeds in synchronized
// rounds; in a round each processor computes and sends one message along each
// incident edge, delivered before the next round; the only efficiency measure
// is the number of rounds — local computation is free and messages are
// unbounded (they are arbitrary Go values here).
//
// The two model variants are configurations, not separate kernels:
//
//   - DetLOCAL: Config.IDs non-nil (unique IDs required, enforced),
//     Config.Randomized false. Nodes are otherwise identical.
//   - RandLOCAL: Config.IDs nil, Config.Randomized true; every node gets a
//     private deterministic random stream derived from Config.Seed, standing
//     in for the model's unbounded truly-random bits.
//
// Two engines execute the same Machine semantics: a fast deterministic
// sequential engine and a goroutine-per-node engine in which every directed
// edge is a Go channel. They are tested to produce identical results for the
// same seed, which is also a useful check that no Machine smuggles shared
// state between nodes.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"locality/internal/ids"
	"locality/internal/rng"
)

// Message is an arbitrary value sent along an edge in one round. The LOCAL
// model does not meter message size. A nil Message means "nothing sent".
type Message any

// Env is everything a node knows at time zero: its degree, the global
// parameters n and Δ (common knowledge in the paper's model), its unique ID
// in DetLOCAL, its private random stream in RandLOCAL, and any
// problem-specific input (e.g. the colors of its incident edges for the
// sinkless problems).
type Env struct {
	Node   int // vertex index; for instrumentation ONLY — see note below
	N      int
	MaxDeg int
	Degree int
	ID     uint64
	HasID  bool
	Rand   *rng.Source
	Input  any
}

// Note: Env.Node exists so tests and verifiers can map outputs back to
// vertices. A Machine implementing a LOCAL algorithm must not branch on it;
// the engine-equivalence and ID-scheme tests are designed to catch abuses
// (sequential vs shuffled IDs must not change a DetLOCAL algorithm's
// correctness, and RandLOCAL machines run with Node-independent streams).

// Machine is the per-node state machine of a distributed algorithm.
//
// The kernel calls Init once, then Step once per step s = 1, 2, ...
// recv[p] is the message the neighbor at port p sent during step s-1 (nil at
// step 1 or if it sent nothing). The returned send slice is indexed by port;
// it may be nil (send nothing) or shorter than the degree (missing ports
// send nothing). When done is true, the final messages are still delivered
// and the node halts: Step is not called again and the node sends nothing in
// later steps. Output is read after the run completes.
//
// Round accounting. The paper's model is: in round r a processor computes
// and sends; messages are delivered before round r+1; the output may be
// computed from everything received, for free. A machine that halts at step
// s has therefore used s-1 communication rounds: its step-s computation
// consumed the round-(s-1) messages and produced only the output. In
// particular a machine that halts at its first Step is a 0-round algorithm
// in the sense of Theorem 4 (output is a function of Env alone). Result
// fields report this rounds convention, not raw steps.
type Machine interface {
	Init(env Env)
	Step(round int, recv []Message) (send []Message, done bool)
	Output() any
}

// Factory creates a fresh Machine for each node. Machines must not share
// mutable state through the factory; the concurrent engine will expose such
// bugs under the race detector.
type Factory func() Machine

// Engine selects the execution strategy.
type Engine int

const (
	// EngineSequential runs nodes in a deterministic order in one goroutine.
	EngineSequential Engine = iota + 1
	// EngineConcurrent runs one goroutine per node with a channel per
	// directed edge.
	EngineConcurrent
)

// Config describes a run.
type Config struct {
	// IDs holds the DetLOCAL identifiers; nil means the nodes have no IDs
	// (RandLOCAL). When non-nil it must assign a distinct ID to every vertex.
	IDs ids.Assignment
	// Randomized grants every node a private random stream derived from Seed.
	Randomized bool
	// Seed drives all node streams in a Randomized run.
	Seed uint64
	// Inputs optionally carries a per-vertex input value.
	Inputs []any
	// MaxRounds aborts runs that exceed it; 0 means 4n+64 (every natural
	// algorithm in this library is O(n)).
	MaxRounds int
	// Engine selects the executor; zero value means EngineSequential.
	Engine Engine
	// Deadline bounds the wall-clock duration of the run; 0 means no bound.
	// It is the watchdog that aborts a deadlocked or runaway run (a machine
	// stuck inside Step, a round that never completes) where the logical
	// MaxRounds budget cannot trigger. Expiry returns ErrDeadline.
	Deadline time.Duration
	// Arena, when non-nil, supplies reusable scratch buffers for the run's
	// machine table and inboxes, so a trial loop that reuses one Arena pays
	// the buffer allocations once instead of per run. Results never alias
	// arena memory. An Arena must not be shared by concurrent Runs.
	Arena *Arena
	// OnRound, when non-nil, is invoked once per completed step with the
	// step number (1, 2, ...) after every node has executed it and its
	// messages are in flight. It is a progress hook for supervision layers
	// (live job status, checkpoint granularity, cancellation tests); both
	// engines call it from the coordinating goroutine, in step order, and
	// it observes — never influences — the run: the callback must not
	// mutate machines or messages, and a run's Result is identical with or
	// without it.
	OnRound func(round int)
	// OnRoundStats, when non-nil, is the round-level telemetry hook: after
	// each completed step (immediately after OnRound) it receives that
	// step's RoundStats. Both engines call it from the coordinating
	// goroutine in step order and deliver identical sequences for
	// identical runs, and like OnRound it observes — never influences —
	// the run: with the hook nil the engines skip all stats accounting, so
	// a disabled run pays nothing (the sequential engine stays 0
	// allocs/round) and a Result is byte-identical either way.
	OnRoundStats func(RoundStats)
}

// RoundStats is one completed step's telemetry snapshot, delivered through
// Config.OnRoundStats. It exists for observability layers (the
// batch.commit round counts of internal/obs/trace); the LOCAL model itself
// meters none of these quantities.
type RoundStats struct {
	// Round is the step number (1, 2, ...), matching OnRound.
	Round int
	// Messages counts the non-nil messages sent during the step.
	Messages int64
	// Bytes approximates the payload bytes of those messages (see
	// MessageBytes); 0-cost message types contribute nothing.
	Bytes int64
	// Active is the number of nodes that executed Step this round (live at
	// the start of the step).
	Active int
	// Halted is the cumulative number of halted nodes at the end of the
	// step.
	Halted int
}

// MessageBytes approximates a message's wire size for telemetry: the byte
// length of string and []byte payloads, the machine width of fixed-size
// scalars, and 0 for every other type (the LOCAL model does not meter
// messages, so structured payloads are deliberately not reflected over —
// sizing must stay allocation-free on the hot path).
func MessageBytes(m Message) int64 {
	switch v := m.(type) {
	case string:
		return int64(len(v))
	case []byte:
		return int64(len(v))
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, float64:
		return 8
	}
	return 0
}

// Result reports a completed run.
type Result struct {
	// Rounds is the LOCAL complexity measure of the run: the communication
	// rounds used until the last node halted (its halting step minus one;
	// see the Machine docs).
	Rounds int
	// Outputs[v] is node v's Output().
	Outputs []any
	// HaltRound[v] is the number of communication rounds node v used
	// (halting step minus one).
	HaltRound []int
	// MessagesSent counts non-nil messages (for instrumentation only; the
	// LOCAL model does not charge for them).
	MessagesSent int64
}

// ErrMaxRounds is returned when a run exceeds its round budget, wrapped with
// context; use errors.Is to test for it.
var ErrMaxRounds = errors.New("sim: exceeded maximum rounds")

// Run executes the algorithm on g under cfg.
func Run(g Topology, cfg Config, f Factory) (*Result, error) {
	return RunContext(context.Background(), g, cfg, f)
}

// RunContext is Run with cooperative cancellation: the run aborts cleanly
// (every node goroutine reaped) as soon as ctx is cancelled or its deadline
// passes, returning an error that wraps ctx.Err(). Cancellation is checked
// at round granularity, so a run whose machines return from Step aborts
// within one round; a machine stuck *inside* Step can only be abandoned by
// the Config.Deadline watchdog (Go cannot kill a goroutine).
func RunContext(ctx context.Context, g Topology, cfg Config, f Factory) (*Result, error) {
	n := g.N()
	if cfg.IDs != nil {
		if len(cfg.IDs) != n {
			return nil, fmt.Errorf("sim: %d IDs for %d vertices", len(cfg.IDs), n)
		}
		if !cfg.IDs.Unique() {
			return nil, errors.New("sim: duplicate vertex IDs (DetLOCAL requires unique IDs)")
		}
	}
	if cfg.Inputs != nil && len(cfg.Inputs) != n {
		return nil, fmt.Errorf("sim: %d inputs for %d vertices", len(cfg.Inputs), n)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 4*n + 64
	}
	switch cfg.Engine {
	case EngineConcurrent:
		return runConcurrent(ctx, g, cfg, f)
	case EngineSequential, 0:
		return runSequential(ctx, g, cfg, f)
	default:
		return nil, fmt.Errorf("sim: unknown engine %d", cfg.Engine)
	}
}

// cancelErr wraps a context cancellation with round context.
func cancelErr(ctx context.Context, round int) error {
	return fmt.Errorf("sim: run cancelled at round %d: %w", round, context.Cause(ctx))
}

// deadlineErr reports a tripped Config.Deadline watchdog.
func deadlineErr(d time.Duration, round int) error {
	return fmt.Errorf("%w: budget %v, tripped at round %d", ErrDeadline, d, round)
}

// Topology is the read-only view of the communication graph the kernel
// needs. *graph.Graph satisfies it; the indirection lets tests use tiny
// hand-built topologies and keeps the kernel free of generator concerns.
type Topology interface {
	N() int
	Degree(v int) int
	// NeighborPort returns, for the edge at port p of v, the opposite
	// endpoint u and the port of the same edge at u.
	NeighborPort(v, p int) (u, rev int)
}

// makeEnv builds node v's initial knowledge.
func makeEnv(g Topology, cfg Config, maxDeg, v int) Env {
	env := Env{
		Node:   v,
		N:      g.N(),
		MaxDeg: maxDeg,
		Degree: g.Degree(v),
	}
	if cfg.IDs != nil {
		env.ID = cfg.IDs[v]
		env.HasID = true
	}
	if cfg.Randomized {
		env.Rand = rng.NewNode(cfg.Seed, v)
	}
	if cfg.Inputs != nil {
		env.Input = cfg.Inputs[v]
	}
	return env
}

func topologyMaxDegree(g Topology) int {
	// Generators precompute Δ; the interface stays minimal but the common
	// case skips the O(n) sweep.
	if md, ok := g.(interface{ MaxDegree() int }); ok {
		return md.MaxDegree()
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}
