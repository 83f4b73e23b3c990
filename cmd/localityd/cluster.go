// Coordinator mode: -coordinator turns this binary into a cluster
// front-end. It serves the worker API through the same server and job pool,
// but the pool executes each job as a sharded sweep across the static
// worker membership (internal/cluster) instead of running the local
// driver: row batches are fanned out by residue class, partial checkpoints
// are harvested every poll, dead shards fail over to survivors, and the
// final table is rendered by one deterministic local replay of the merged
// checkpoint — byte-identical to a single-process run, whatever subset of
// the cluster survived.
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"sync"

	"locality/internal/cluster"
	"locality/internal/jobs"
	"locality/internal/obs/trace"
)

// membership resolves the static worker set from -shards / -membership-file
// (exactly one must be given).
func membership(shardsFlag, membershipFile string) ([]cluster.Shard, error) {
	switch {
	case shardsFlag != "" && membershipFile != "":
		return nil, fmt.Errorf("localityd: -shards and -membership-file are mutually exclusive")
	case shardsFlag != "":
		return cluster.ParseShards(shardsFlag)
	case membershipFile != "":
		return cluster.LoadShards(membershipFile)
	default:
		return nil, fmt.Errorf("localityd: -coordinator requires -shards or -membership-file")
	}
}

// coordinatorOptions turns worker pool options into coordinator-mode ones:
// one Coordinator built from co (sharing the pool's metrics registry) runs
// every job through Options.Execute. Workers is forced to 1 because a
// Coordinator is not safe for concurrent Runs. The pool's tracer parents
// the sweep spans, and each cluster.sweep span carries its sweep's
// failover summary.
func coordinatorOptions(opts jobs.Options, co cluster.Options) (jobs.Options, error) {
	tr := opts.Tracer
	// sweep is the in-flight sweep's span: the coordinator carries no
	// tracer (obsinert) and reports its timing through OnSpan, which turns
	// each SpanEvent into a real span under it.
	var mu sync.Mutex
	var sweep *trace.Span
	co.Metrics = opts.Metrics
	co.OnSpan = func(e cluster.SpanEvent) {
		mu.Lock()
		parent := sweep.Context()
		mu.Unlock()
		attrs := e.Attrs
		if e.Shard != "" {
			attrs = append([]string{"shard", e.Shard}, attrs...)
		}
		tr.Emit(parent, e.Name, e.StartUnixNanos, e.EndUnixNanos, attrs...)
	}
	coord, err := cluster.New(co)
	if err != nil {
		return opts, err
	}
	for _, sh := range coord.Shards() {
		log.Printf("localityd: cluster member %s = %s", sh.Name, sh.URL)
	}
	opts.Workers = 1
	opts.Execute = func(ctx context.Context, id string, spec jobs.Spec, apiKey string, parent trace.SpanContext) (string, int, error) {
		// The sweep span parents everything this job does cluster-wide: the
		// coordinator's SpanEvents and — through the trace header riding the
		// dispatch context — every shard-side route and job span, so one
		// multi-process tree assembles per sweep.
		sp := tr.Start(parent, "cluster.sweep", "experiment", spec.Experiment, "job", id)
		defer sp.End()
		mu.Lock()
		sweep = sp
		mu.Unlock()
		defer func() {
			mu.Lock()
			sweep = nil
			mu.Unlock()
		}()
		// The submitter's API key rides the context into every shard call,
		// so workers account the sweep's row batches to the right tenant.
		ctx = cluster.WithTenant(ctx, apiKey)
		ctx = cluster.WithTraceHeader(ctx, sp.Context().String())
		res, err := coord.Run(ctx, spec)
		sp.SetAttr("state", string(sweepState(ctx, err)))
		if res == nil {
			return "", 0, err
		}
		sp.SetAttr("total_batches", strconv.Itoa(res.TotalBatches))
		sp.SetAttr("retried", strconv.Itoa(res.Retried))
		sp.SetAttr("recomputed", strconv.Itoa(res.Recomputed))
		sp.SetAttr("lost", strconv.Itoa(res.Lost))
		return res.Output, res.TotalBatches, err
	}
	return opts, nil
}

// sweepState classifies a finished sweep for its span: a failed sweep
// whose context ended reports as cancelled.
func sweepState(ctx context.Context, err error) jobs.State {
	switch {
	case err == nil:
		return jobs.StateSucceeded
	case ctx.Err() != nil:
		return jobs.StateCancelled
	default:
		return jobs.StateFailed
	}
}
