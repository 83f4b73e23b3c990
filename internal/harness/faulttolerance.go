package harness

import (
	"context"
	"errors"
	"fmt"

	"locality/internal/core"
	"locality/internal/fault"
	"locality/internal/graph"
	"locality/internal/lcl"
	"locality/internal/mis"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/sinkless"
)

// ftCase is one algorithm under fault injection: an instance, the factory
// that solves it, the problem that judges the output, and the projection
// from raw simulator outputs to LCL labels.
type ftCase struct {
	name    string
	problem lcl.Problem
	inst    lcl.Instance
	factory sim.Factory
	labels  func(outputs []any) []any
	// fromRound exempts the algorithm's setup exchange from drop/dup
	// injection (fault.Plan.FromRound); 0 means faults from the first step.
	fromRound int
}

// ftAttempt is the outcome of a single faulty run.
type ftAttempt struct {
	runErr error
	report lcl.Report
}

// ftRun executes one seeded attempt of a case under a plan. The harness
// Config and table are threaded through so the run feeds the sweep's
// Observer like every other driver (hc.sim is a no-op without one).
func ftRun(hc Config, t *Table, c ftCase, plan fault.Plan, runSeed uint64) ftAttempt {
	cfg := hc.sim(t, sim.Config{
		Randomized: true,
		Seed:       runSeed,
		Inputs:     c.inst.NodeInputs(),
		MaxRounds:  1 << 22,
	})
	res, err := sim.Run(c.inst.G, cfg, plan.Wrap(c.inst.G, c.factory))
	if err != nil {
		return ftAttempt{runErr: err}
	}
	return ftAttempt{report: c.problem.Violations(c.inst, c.labels(res.Outputs))}
}

// ftErrString renders a run error as a short table cell. Classification is
// exclusively errors.Is/errors.As against the structured sentinels — the
// kernel always wraps them with run context, so text matching would be both
// fragile and a localvet errsentinel finding (the testdata fixture
// ftclassify.go demonstrates the flagged regression).
func ftErrString(err error) string {
	if err == nil {
		return "none"
	}
	var ne *sim.NodeError
	if errors.As(err, &ne) {
		kind := "fault"
		switch {
		case errors.Is(err, sim.ErrNodePanic):
			kind = "panic"
		case errors.Is(err, sim.ErrOverSend):
			kind = "over-send"
		}
		return fmt.Sprintf("%s at node %d, round %d", kind, ne.Node, ne.Round)
	}
	switch {
	case errors.Is(err, sim.ErrMaxRounds):
		return "max rounds"
	case errors.Is(err, ErrSweepInterrupted), errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "ctx deadline"
	}
	return fmt.Sprintf("unclassified: %v", err)
}

// E12FaultTolerance measures graceful degradation: the paper's Monte-Carlo
// algorithms (Theorem 11 Δ-coloring, Luby MIS, sinkless orientation) run
// under seeded off-model fault plans — crash-stop nodes, message drops,
// duplication — and the table reports what fraction of the LCL's per-vertex
// constraints still holds, how misbehavior surfaces (structured errors, never
// process crashes), and whether the Retry failure-budget discipline recovers.
func E12FaultTolerance(cfg Config) *Table {
	t := &Table{
		ID:    "E12",
		Title: "fault tolerance: graceful degradation under injected failures",
		Claim: "off-model faults degrade the randomized algorithms gracefully — partial " +
			"outputs score partial constraint satisfaction, failures surface as structured " +
			"errors, and retrying with fresh seeds recovers from transient faults",
		Columns: []string{"algorithm", "fault plan", "first-run error", "satisfied frac",
			"worst vtx", "attempts", "recovered"},
	}
	n := 192
	half := 64
	if cfg.Quick {
		n = 64
		half = 24
	}
	budget := cfg.trials(3, 5)
	r := rng.New(cfg.Seed + 24)

	tree8 := graph.RandomTree(n, 8, r)
	tree5 := graph.RandomTree(n, 5, r)
	ecg := graph.RandomRegularBipartite(half, 3, r)
	cases := []ftCase{
		{
			name:    "T11 Δ-coloring (Δ=8)",
			problem: lcl.Coloring(8),
			inst:    lcl.Instance{G: tree8},
			factory: core.NewT11Factory(core.T11Options{Delta: 8}),
			labels:  func(out []any) []any { return lcl.IntLabels(core.Colors(out)) },
		},
		{
			name:    "Luby MIS",
			problem: lcl.MIS(),
			inst:    lcl.Instance{G: tree5},
			factory: mis.NewLubyFactory(),
			labels:  func(out []any) []any { return out },
		},
		{
			name:    "sinkless orientation (Δ=3)",
			problem: lcl.SinklessOrientation(),
			inst:    lcl.Instance{G: ecg.Graph, EdgeColors: ecg.Colors, NumEdgeColors: 3},
			factory: sinkless.NewOrientFactory(),
			labels: func(out []any) []any {
				labels := sinkless.OrientLabels(out)
				wrapped := make([]any, len(labels))
				for v, l := range labels {
					wrapped[v] = l
				}
				return wrapped
			},
			// The step-1 priority exchange is the orientation's setup: a
			// dropped priority is a malformed protocol, not a lost update.
			fromRound: 2,
		},
	}
	plans := []fault.Plan{
		{},
		{CrashFrac: 0.05, CrashRound: 3},
		{DropProb: 0.02},
		{DropProb: 0.10},
		{CrashFrac: 0.05, CrashRound: 3, DropProb: 0.05, DupProb: 0.05},
	}

	for ci, c := range cases {
		for pi, plan := range plans {
			plan.FromRound = c.fromRound
			cfg.Row(t, func(t *Table) {
				// The retry path is RetryContext: cancellation between
				// attempts is honored (a drained jobs worker abandons the
				// budget cleanly) and the backoff jitter stream is seeded
				// per (experiment, case, plan) — deterministic like every
				// other draw. Base 0 keeps in-process retries waitless.
				backoff := Backoff{Seed: rng.Mix64(cfg.Seed+2, uint64(ci)<<8|uint64(pi))}
				var first ftAttempt
				rr := RetryContext(cfg.ctx(), budget, backoff, func(attempt int) error {
					coord := uint64(ci)<<16 | uint64(pi)<<8 | uint64(attempt)
					p := plan
					p.Seed = rng.Mix64(cfg.Seed, coord)
					a := ftRun(cfg, t, c, p, rng.Mix64(cfg.Seed+1, coord))
					if attempt == 0 {
						first = a
					}
					switch {
					case a.runErr != nil:
						return a.runErr
					case a.report.Structural != nil:
						return a.report.Structural
					case a.report.Violated > 0:
						return a.report.WorstErr
					}
					return nil
				})
				frac, worst := "n/a", "-"
				if first.runErr == nil {
					frac = fmt.Sprintf("%.4g", first.report.SatisfiedFraction())
					if first.report.Worst >= 0 {
						worst = fmt.Sprint(first.report.Worst)
					}
				}
				recovered := "no"
				if rr.Success {
					recovered = fmt.Sprintf("attempt %d", rr.Attempts)
				}
				t.AddRow(c.name, plan.String(), ftErrString(first.runErr), frac, worst,
					rr.Attempts, recovered)
			})
		}
	}
	cfg.Flush(t)
	t.Note("fault injection is off-model instrumentation (package fault): the paper's LOCAL " +
		"model is synchronous and loss-free, so these rows measure robustness of the " +
		"implementations, not a claim of the paper")
	t.Note("crash plans re-sample victims each retry, so persistent crashes stay visible as " +
		"partial satisfaction; only transient drop/dup faults are retryable away")
	t.Note("misbehaving machines surface as structured sim errors (panic/over-send with node " +
		"and round), never as a process crash")
	return t
}
