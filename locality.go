// Package locality is a LOCAL-model laboratory: a reproduction of
//
//	Chang, Kopelowitz, Pettie: "An Exponential Separation Between
//	Randomized and Deterministic Complexity in the LOCAL Model"
//	(PODC/FOCS 2016)
//
// as a runnable Go library. It bundles a synchronous message-passing
// simulator for Linial's LOCAL model (DetLOCAL and RandLOCAL variants), the
// paper's two randomized Δ-coloring-trees algorithms, the classical toolbox
// they build on (Linial's coloring, Cole–Vishkin, Luby's MIS,
// Barenboim–Elkin forest coloring, maximal matching), the constructive
// transforms of Theorems 3, 5 and 6, the sinkless orientation/coloring
// problem pair of Brandt et al., a neighborhood-graph lower-bound engine,
// and an experiment harness that regenerates every quantitative claim as a
// table (see EXPERIMENTS.md).
//
// This package is the curated facade: it re-exports the library's main
// types and constructors so downstream users import a single path. The
// subsystems live in internal/ packages whose documentation carries the
// full details; everything exported here is an alias or thin wrapper.
//
// # Quick start
//
//	g := locality.RandomTree(1024, 8, locality.NewRand(1))
//	res, err := locality.Run(g, locality.RunConfig{Randomized: true, Seed: 42},
//	    locality.NewTheorem11Factory(locality.Theorem11Options{Delta: 8}))
//	// res.Rounds is the LOCAL complexity; verify with locality.ValidateColoring.
//
// See examples/ for complete programs.
package locality

import (
	"locality/internal/core"
	"locality/internal/fault"
	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/harness"
	"locality/internal/ids"
	"locality/internal/lcl"
	"locality/internal/linial"
	"locality/internal/matching"
	"locality/internal/mis"
	"locality/internal/nbrgraph"
	"locality/internal/ringcolor"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/sinkless"
	"locality/internal/speedup"
)

// ---- Graphs ----

// Graph is an immutable simple undirected graph with port numbering; it is
// both the instance type and the simulator topology.
type Graph = graph.Graph

// EdgeColoredGraph bundles a graph with a proper edge coloring (the input
// of the sinkless problems).
type EdgeColoredGraph = graph.EdgeColoredGraph

// GraphBuilder accumulates edges and validates them into a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Generators for every instance family the paper's results run on.
var (
	Path                   = graph.Path
	Ring                   = graph.Ring
	Star                   = graph.Star
	Grid                   = graph.Grid
	CompleteKAry           = graph.CompleteKAry
	Caterpillar            = graph.Caterpillar
	RandomTree             = graph.RandomTree
	UniformTree            = graph.UniformTree
	RandomBoundedDegree    = graph.RandomBoundedDegree
	RandomRegularBipartite = graph.RandomRegularBipartite
	HighGirthRegular       = graph.HighGirthRegular
)

// ---- Randomness and identifiers ----

// Rand is a deterministic splittable random stream (xoshiro256**).
type Rand = rng.Source

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// IDAssignment is a vertex-indexed table of DetLOCAL identifiers.
type IDAssignment = ids.Assignment

var (
	// SequentialIDs assigns vertex v the ID v+1.
	SequentialIDs = ids.Sequential
	// ShuffledIDs assigns a random permutation of 1..n.
	ShuffledIDs = ids.Shuffled
	// RandomBitIDs draws independent b-bit IDs with no uniqueness
	// guarantee (the Theorem 5 regime).
	RandomBitIDs = ids.RandomBits
)

// ---- The simulator ----

// Machine is the per-node state machine interface of the LOCAL kernel.
type Machine = sim.Machine

// MachineFactory creates a fresh machine per node.
type MachineFactory = sim.Factory

// NodeEnv is a node's initial knowledge (degree, n, Δ, ID, random stream).
type NodeEnv = sim.Env

// Message is an arbitrary value sent along an edge in one round.
type Message = sim.Message

// RunConfig selects the model variant and run parameters.
type RunConfig = sim.Config

// Arena is reusable scratch memory for back-to-back runs: pass one in
// RunConfig.Arena and the kernel reuses machine/inbox buffers across runs.
type Arena = sim.Arena

// RunResult reports rounds, outputs and instrumentation.
type RunResult = sim.Result

// Engine selects the executor.
type Engine = sim.Engine

// Engine choices: a deterministic sequential executor, and one goroutine
// per node with a channel per directed edge.
const (
	EngineSequential = sim.EngineSequential
	EngineConcurrent = sim.EngineConcurrent
)

// Run executes a distributed algorithm on g.
func Run(g *Graph, cfg RunConfig, f MachineFactory) (*RunResult, error) {
	return sim.Run(g, cfg, f)
}

// RunContext is Run with cooperative cancellation: the run aborts cleanly
// (all goroutines reaped) when ctx is cancelled or its deadline passes. A
// context with a deadline is a run's only wall-clock bound.
var RunContext = sim.RunContext

// NodeError locates a misbehaving machine: which node, which round, what it
// did. Returned (wrapped in one of the sentinels below) instead of crashing
// the process when a machine panics or over-sends.
type NodeError = sim.NodeError

// Kernel error sentinels, testable with errors.Is.
var (
	// ErrNodePanic wraps a recovered machine panic.
	ErrNodePanic = sim.ErrNodePanic
	// ErrOverSend marks a machine that sent on more ports than its degree.
	ErrOverSend = sim.ErrOverSend
	// ErrMaxRounds marks a run that exhausted its round budget.
	ErrMaxRounds = sim.ErrMaxRounds
)

// ---- Fault injection (off-model instrumentation) ----

// FaultPlan is a deterministic seeded fault-injection schedule (crash-stop
// nodes, message drops, duplication) that wraps any factory via its Wrap
// method. It is instrumentation for robustness experiments, not part of the
// paper's LOCAL model.
type FaultPlan = fault.Plan

// ---- LCL problems and verification ----

// LCLProblem is a locally checkable labeling problem (radius-1 check).
type LCLProblem = lcl.Problem

// LCLInstance is a graph plus optional input labeling.
type LCLInstance = lcl.Instance

var (
	// ColoringProblem is the k-COLORING LCL.
	ColoringProblem = lcl.Coloring
	// MISProblem is the MAXIMAL INDEPENDENT SET LCL.
	MISProblem = lcl.MIS
	// MaximalMatchingProblem is the MAXIMAL MATCHING LCL.
	MaximalMatchingProblem = lcl.MaximalMatching
	// SinklessOrientationProblem and SinklessColoringProblem are the
	// Brandt et al. problems behind Theorem 4.
	SinklessOrientationProblem = lcl.SinklessOrientation
	SinklessColoringProblem    = lcl.SinklessColoring
	// VerifyDistributed runs the 1-round distributed verifier.
	VerifyDistributed = lcl.VerifyDistributed
)

// ValidateColoring judges a 1-based coloring against the k-coloring LCL.
func ValidateColoring(g *Graph, k int, colors []int) error {
	return lcl.Coloring(k).Validate(lcl.Instance{G: g}, lcl.IntLabels(colors))
}

// ValidateMIS judges a membership vector against the MIS LCL.
func ValidateMIS(g *Graph, inSet []bool) error {
	return lcl.MIS().Validate(lcl.Instance{G: g}, lcl.BoolLabels(inSet))
}

// LCLReport is the counted result of LCLProblem.Violations: how many
// per-vertex constraints a (possibly partial or damaged) labeling satisfies,
// and the worst offender. It is the graceful-degradation companion to the
// all-or-nothing Validate.
type LCLReport = lcl.Report

// ---- The paper's algorithms (Section VI) ----

// Theorem11Options configures the Δ >= 55 randomized tree coloring.
type Theorem11Options = core.T11Options

// Theorem10Options configures the large-Δ ColorBidding coloring.
type Theorem10Options = core.T10Options

var (
	// NewTheorem11Factory is the three-phase RandLOCAL Δ-coloring of trees
	// (Theorem 11): O(log_Δ log n + log* n) rounds.
	NewTheorem11Factory = core.NewT11Factory
	// NewTheorem10Factory is the ColorBidding RandLOCAL Δ-coloring of
	// trees (Theorem 10).
	NewTheorem10Factory = core.NewT10Factory
	// ColoringOutputs extracts the color labels from a run's outputs.
	ColoringOutputs = core.Colors
	// Theorem11Rounds / Theorem10Rounds predict the round budgets.
	Theorem11Rounds = core.T11Rounds
	Theorem10Rounds = core.T10Rounds
)

// ---- The deterministic toolbox ----

// TreeColoringOptions configures the Theorem 9 style deterministic forest
// q-coloring.
type TreeColoringOptions = forest.Options

// LinialOptions configures Linial's iterated color reduction.
type LinialOptions = linial.Options

var (
	// NewTreeColoringFactory is the DetLOCAL q-coloring of forests
	// (Barenboim–Elkin / Theorem 9 role): O(log_A n · A + log* n) rounds.
	NewTreeColoringFactory = forest.NewFactory
	// NewLinialFactory is Theorem 2 (+ optional sweep / Kuhn–Wattenhofer
	// reduction) as a machine.
	NewLinialFactory = linial.NewFactory
	// LinialSchedule / LinialFixedPoint expose the palette trajectory.
	LinialSchedule   = linial.Schedule
	LinialFixedPoint = linial.FixedPoint
	// NewColeVishkinFactory 3-colors oriented rings in O(log* n).
	NewColeVishkinFactory = ringcolor.NewColeVishkinFactory
	// RingOrientation builds the oriented-ring promise input.
	RingOrientation = ringcolor.RingOrientation
)

// ---- Symmetry breaking ----

var (
	// NewLubyMISFactory is Luby's RandLOCAL MIS.
	NewLubyMISFactory = mis.NewLubyFactory
	// NewDetMISFactory is the DetLOCAL MIS via Linial + class sweep.
	NewDetMISFactory = mis.NewDetFactory
	// NewRandMatchingFactory / NewDetMatchingFactory are the maximal
	// matching pair.
	NewRandMatchingFactory = matching.NewRandFactory
	NewDetMatchingFactory  = matching.NewDetFactory
)

// ---- Sinkless orientation / coloring (Theorem 4's problems) ----

var (
	// NewSinklessOrientationFactory is the RandLOCAL sinkless orientation.
	NewSinklessOrientationFactory = sinkless.NewOrientFactory
	// NewColoringFromOrientationFactory / NewOrientFromColoringFactory are
	// the executable Lemma 1/2 reductions.
	NewColoringFromOrientationFactory = sinkless.NewColoringFromOrientationFactory
	NewOrientFromColoringFactory      = sinkless.NewOrientFromColoringFactory
	// ZeroRoundMinimax / ZeroRoundLowerBound expose the Theorem 4 base
	// case exactly.
	ZeroRoundMinimax    = sinkless.ZeroRoundMinimax
	ZeroRoundLowerBound = sinkless.ZeroRoundLowerBound
)

// ---- Meta-transforms (Theorems 3, 5, 6) ----

var (
	// NewTheorem5Factory turns a DetLOCAL algorithm into a RandLOCAL one
	// via random IDs + one power-graph Linial step.
	NewTheorem5Factory = speedup.NewTheorem5Factory
	// NewTheorem6Plan / NewTheorem6Factory implement the ID-shortening
	// speedup transform.
	NewTheorem6Plan     = speedup.NewTheorem6Plan
	NewTheorem6Factory  = speedup.NewTheorem6Factory
	Theorem5PaletteSize = speedup.Theorem5Palette
)

// ---- Lower-bound engines ----

var (
	// BuildNeighborhoodGraph constructs Linial's B_t(m) for directed rings.
	BuildNeighborhoodGraph = nbrgraph.Build
	// RingAlgorithmExists decides t-round k-colorability of rings with ID
	// space m by exhaustive search — machine-checked lower bounds.
	RingAlgorithmExists = nbrgraph.AlgorithmExists
)

// ---- Experiments ----

// ExperimentConfig scales the experiment suite.
type ExperimentConfig = harness.Config

// ExperimentTable is a rendered experiment result.
type ExperimentTable = harness.Table

var (
	// RunAllExperiments regenerates every table of EXPERIMENTS.md.
	RunAllExperiments = harness.All
	// ExperimentByID looks up a single driver ("E1".."E13", "A1".."A3"),
	// case-insensitively.
	ExperimentByID = harness.ByID
)

// RetryResult records a Retry run: attempts consumed and whether one
// succeeded.
type RetryResult = harness.RetryResult

// Retry re-runs a Monte-Carlo algorithm under a failure budget; the callback
// derives fresh seeds from the attempt number.
var Retry = harness.Retry
