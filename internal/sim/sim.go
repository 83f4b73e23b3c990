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
	"sync"

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
// No-retain rule. An engine is done with a returned send slice before it
// calls that node's next Step: the sequential engine copies each entry into
// the next inbox, and the concurrent engine pushes each entry into its
// channel before the round barrier. A machine may therefore overwrite its
// previous send slice in its next Step, and keep one reused buffer per node
// (see BroadcastInto). A wrapper that returns an inner machine's send slice,
// or copies it into a buffer of its own, keeps the rule. The message values
// are different: receivers may keep them (the fault layer replays old ones
// as duplicates), so a sent value must never be mutated afterwards, nor may
// anything it points to. Sending the same immutable value again is not
// mutating it: a machine may return the same Message on consecutive steps
// (see Box), and a value one receiver keeps may reach it again. In the
// other direction, recv belongs to the
// engine: a machine reads it during Step and neither writes it nor keeps
// the slice (the sequential engine clears only the inbox slots it wrote, so
// a value written into recv could be read again two steps later).
//
// Round accounting. The paper's model is: in round r a processor computes
// and sends; messages are delivered before round r+1; the output may be
// computed from everything received, for free. A machine that halts at step
// s has therefore used s-1 communication rounds: its step-s computation
// consumed the round-(s-1) messages and produced only the output. In
// particular a machine that halts at its first Step is a 0-round algorithm
// in the sense of Theorem 4 (output is a function of Env alone). Result
// fields report this rounds convention, not raw steps. A node that is
// asleep (see Sleeper) is still live: it counts toward Rounds until it
// halts.
type Machine interface {
	Init(env Env)
	Step(round int, recv []Message) (send []Message, done bool)
	Output() any
}

// Sleeper is an optional Machine extension that lets the sequential engine
// skip a node's idle steps. That engine visits only live, awake nodes at
// each step, so a run costs time in proportion to the awake nodes rather
// than to n × rounds.
//
// The contract: after a Step at step r that did not halt, SleepUntil
// returns a step w and a mode. Any w <= r+1 means "step me as usual". If
// w > r+1 the node sleeps, in one of two modes:
//
//   - Discard mode (onMail false): the machine promises that every Step at
//     a step in (r, w) would return (nil, false) and change no state,
//     whatever it received. The engine does not call Step until step w.
//     Messages sent to the node meanwhile are delivered into its inbox as
//     usual and discarded unread, as its no-op Steps would have discarded
//     them.
//   - Mail mode (onMail true): the machine promises only that every Step in
//     (r, w) whose inbox is all nil would return (nil, false) and change no
//     state. Mail delivered to the node while it sleeps wakes it: a message
//     sent to it during step s puts it back among the awake nodes, and it
//     is stepped at s+1 with that mail, after which SleepUntil is asked
//     again. Without mail it sleeps until step w.
//
// The engine checks for Sleeper once per node after Init.
//
// A sleeping node is live, not halted: it counts toward Result.Rounds,
// HaltRound, MessagesSent and RoundStats exactly as if it had been
// stepped. The concurrent engine ignores Sleeper and steps every live
// node; it is the reference semantics the sequential engine is tested
// against.
type Sleeper interface {
	SleepUntil() (wake int, onMail bool)
}

// Factory creates a fresh Machine for each node. Machines must not share
// mutable state through the factory; the concurrent engine will expose such
// bugs under the race detector. The one thing they may share is an
// immutable per-run plan obtained from a PlanMemo: data every node of a run
// would derive identically from the factory's options and the common
// knowledge Env.N and Env.MaxDeg, built once and never written after.
type Factory func() Machine

// PlanMemo builds a factory's per-run plan once and hands every machine of
// the run the same read-only pointer. The plan is a function of (N, MaxDeg)
// only; the memo keeps the last one it built and rebuilds when a run with a
// different graph shape calls Get, so a factory reused across graph sizes
// holds one plan rather than one per size. Get is safe for the concurrent
// engine's parallel Init; callers must not mutate the returned plan.
type PlanMemo[P any] struct {
	build func(n, maxDeg int) P

	mu        sync.Mutex
	n, maxDeg int
	plan      func() *P // builds once for (n, maxDeg); a build panic repeats on every call
}

// NewPlanMemo returns a memo that builds plans with build.
func NewPlanMemo[P any](build func(n, maxDeg int) P) *PlanMemo[P] {
	return &PlanMemo[P]{build: build}
}

// Get returns the plan for env's graph shape, building it on first use.
// Nodes that arrive while it is being built wait for that one build.
func (m *PlanMemo[P]) Get(env Env) *P {
	n, maxDeg := env.N, env.MaxDeg
	m.mu.Lock()
	if m.plan == nil || m.n != n || m.maxDeg != maxDeg {
		m.n, m.maxDeg = n, maxDeg
		m.plan = sync.OnceValue(func() *P {
			p := m.build(n, maxDeg)
			return &p
		})
	}
	plan := m.plan
	m.mu.Unlock()
	return plan()
}

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
	// Arena, when non-nil, supplies reusable scratch buffers for the run's
	// machine table and inboxes, so a trial loop that reuses one Arena pays
	// the buffer allocations once instead of per run. Results never alias
	// arena memory. An Arena must not be shared by concurrent Runs.
	Arena *Arena
	// OnRoundStats, when non-nil, is invoked once per completed step,
	// after every node has executed it and its messages are in flight,
	// with that step's RoundStats (RoundStats.Round is the step number 1,
	// 2, ...). It is the one per-step hook: a progress hook for supervision
	// layers (live job status, checkpoint granularity, cancellation tests)
	// and the round-level telemetry of the observability layers. Both
	// engines call it from the coordinating goroutine, in step order, and
	// deliver identical sequences for identical runs. It observes — never
	// influences — the run: the callback must not mutate machines or
	// messages. With the hook nil the engines skip all stats accounting,
	// so a disabled run pays nothing (the sequential engine stays 0
	// allocs/round), and a Result is byte-identical either way.
	OnRoundStats func(RoundStats)
}

// RoundStats is one completed step's telemetry snapshot, delivered through
// Config.OnRoundStats. It exists for observability layers (the
// batch.commit round counts of internal/obs/trace); the LOCAL model itself
// meters none of these quantities.
type RoundStats struct {
	// Round is the step number (1, 2, ...).
	Round int
	// Messages counts the non-nil messages sent during the step.
	Messages int64
	// Bytes approximates the payload bytes of those messages (see
	// MessageBytes); 0-cost message types contribute nothing.
	Bytes int64
	// Active is the number of nodes live at the start of the step. Sleeping
	// nodes (see Sleeper) count as active even where the sequential engine
	// skipped their Step.
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
// passes, returning an error that wraps ctx.Err(). A context with a
// deadline is the run's only wall-clock bound. Cancellation is checked at
// round granularity, so a run whose machines return from Step aborts within
// one round. A machine stuck *inside* Step cannot be reaped (Go cannot kill
// a goroutine): the sequential engine then never returns, and the
// concurrent engine returns after its abort grace period with an error
// that reports the leak.
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

// nodeStreams returns the slab that makeEnv seeds the node streams of a
// Randomized run into, one entry per node; nil when the run has none.
func nodeStreams(cfg Config, n int) []rng.Source {
	if !cfg.Randomized {
		return nil
	}
	return make([]rng.Source, n)
}

// makeEnv builds node v's initial knowledge. In a Randomized run it seeds
// node v's stream in place at srcs[v], the slab from nodeStreams.
func makeEnv(g Topology, cfg Config, srcs []rng.Source, maxDeg, v int) Env {
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
		env.Rand = &srcs[v]
		env.Rand.SeedNode(cfg.Seed, v)
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
