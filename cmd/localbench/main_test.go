package main

import (
	"bytes"
	"strconv"
	"testing"

	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs/trace"
)

// TestTraceArtifact drives an experiment the way -trace-dir does and
// checks the table stays byte-identical to an untraced run while the
// artifact assembles into one orphan-free tree: the run's root span under
// the spec's identity-derived trace ID (of the canonical ID, so "e2" joins
// E2's trace), with a batch.commit child per committed batch carrying the
// simulator's round counts.
func TestTraceArtifact(t *testing.T) {
	driver, ok := harness.ByID("E2")
	if !ok {
		t.Fatal("E2 missing from registry")
	}
	base := harness.Config{Quick: true, Seed: 7}
	var want bytes.Buffer
	driver(base).Render(&want)

	dir := t.TempDir()
	cfg := base
	tr, sweepObs, err := openTrace(dir, "e2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = sweepObs
	var got bytes.Buffer
	driver(cfg).Render(&got)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("tracing changed the rendered table")
	}

	res, err := trace.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	forest := trace.Assemble(res.Spans)
	if err := forest.Err(); err != nil {
		t.Fatalf("trace artifact incomplete: %v", err)
	}
	id := trace.IDFromIdentity(jobs.Spec{Experiment: "E2", Quick: true, Seed: 7}.IdentityKey())
	if len(forest.Traces) != 1 || forest.Traces[0].ID != id || len(forest.Traces[0].Roots) != 1 {
		t.Fatalf("want one trace %s with one root, got %+v", id, forest.Traces)
	}
	root := forest.Traces[0].Roots[0]
	if root.Name != "localbench.run" || root.Attrs["experiment"] != "e2" || root.Attrs["seed"] != "7" {
		t.Errorf("root span %s %v", root.Name, root.Attrs)
	}
	var rounds int
	for _, c := range root.Children {
		n, err := strconv.Atoi(c.Attrs["rounds"])
		if c.Name != "batch.commit" || err != nil {
			t.Fatalf("root child %s with rounds %q", c.Name, c.Attrs["rounds"])
		}
		rounds += n
	}
	if len(root.Children) == 0 || rounds == 0 {
		t.Errorf("%d batch.commit spans covering %d rounds", len(root.Children), rounds)
	}
}
