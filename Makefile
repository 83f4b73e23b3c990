GO ?= go

.PHONY: all build test vet lint lint-fast race fuzz-smoke bench experiments load

all: build test

# _perfbench is a separate module (replace locality => ../) that builds
# against internal packages, so an internal API change that breaks the
# benchmark fails here rather than in the benchmark run.
build:
	$(GO) build ./...
	$(GO) build -C _perfbench -o /dev/null .

# _perfbench's own tests (its run statistics) run offline in seconds.
test:
	$(GO) test ./...
	$(GO) test -C _perfbench ./...

vet:
	$(GO) vet ./...

# Static gate (CI, tier 1): gofmt (any Go file outside testdata/ and the
# dot-directories that gofmt -l lists fails the gate), standard go vet, and
# localvet, the in-repo multichecker that enforces the LOCAL-model
# determinism & purity contract (see DESIGN.md, "Model purity & static
# enforcement" and §11). One module-wide localvet run gates (any finding
# exits non-zero and is listed on stderr) and writes localvet.sarif for
# code-scanning upload.
lint:
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/localvet -format sarif ./... > localvet.sarif

# Changed-package lint for the edit loop: runs localvet only on packages
# whose files differ from origin's main (falling back to HEAD for a detached
# or just-cloned tree). The module-wide call graph is still built from the
# targets' dependency cone, so interprocedural chains stay visible.
lint-fast:
	@base=$$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD); \
	dirs=$$(git diff --name-only $$base -- '*.go' | xargs -r -n1 dirname | sort -u \
	        | while read d; do [ -d "$$d" ] && echo "./$$d"; done); \
	if [ -z "$$dirs" ]; then echo "lint-fast: no changed Go packages"; \
	else echo "lint-fast: $$dirs"; $(GO) run ./cmd/localvet $$dirs; fi

# The one race gate: every package under the race detector. That covers
# the goroutine-per-node kernel (internal/sim, internal/fault), the sharded
# cluster and its multi-process kill-a-shard e2e (internal/cluster,
# TestCluster*), the result store and its daemon integration tests
# (internal/store, TestStore*, TestRetention*), the tracing differentials
# and trace e2e (internal/obs/trace, cmd/localtrace, TestClusterTraceE2E)
# and the in-process multi-tenant fairness e2e. With TRACE_ARTIFACT_DIR
# set, TestClusterTraceE2E exports the merged per-process span artifacts
# there and localtrace re-validates them from the command line — the same
# binary a human would point at a production trace directory (DESIGN.md
# §14).
race:
	$(GO) test -race ./...
	@if [ -n "$$TRACE_ARTIFACT_DIR" ]; then $(GO) run ./cmd/localtrace "$$TRACE_ARTIFACT_DIR"; fi

# Short fuzz sweep (CI smoke, not a soak): each target runs for a few
# seconds. `go test -fuzz` accepts one target per invocation, hence one run
# per target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzGenerateTree -fuzztime=5s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzBuild -fuzztime=5s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzLCLCheck -fuzztime=5s ./internal/lcl
	$(GO) test -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzIdentityKey -fuzztime=5s ./internal/jobs
	$(GO) test -run='^$$' -fuzz=FuzzStoreRecord -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzReduce -fuzztime=5s ./internal/linial
	$(GO) test -run='^$$' -fuzz=FuzzReduction -fuzztime=5s ./internal/linial
	$(GO) test -run='^$$' -fuzz=FuzzRouteTable -fuzztime=5s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzSleepSchedule -fuzztime=5s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzQuietEngines -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSweepCommits -fuzztime=5s ./internal/harness
	$(GO) test -run='^$$' -fuzz=FuzzCollector -fuzztime=5s ./internal/view

# Perf trajectory: run the Go benchmarks (benchmarks only: the tests run
# in make test and make race) with allocation reporting. Each experiment
# benchmark fails when its allocs/op is more than 2% off its budget in
# bench_test.go's allocBudget, or when the Go minor differs from the one
# the budget was measured on; ns/op is reported, never gated. Then trace a
# quick-scale sweep into bench-trace/ (one batch.commit span per batch,
# with its round counts) and check with localtrace that it assembles
# without orphans.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...
	rm -rf bench-trace
	$(GO) run ./cmd/localbench -quick -trace-dir bench-trace > /dev/null
	$(GO) run ./cmd/localtrace bench-trace > /dev/null

# Multi-tenant load gate (CI): the full out-of-process workload — build a
# localityd, spawn it with a two-tenant quota file, run the seeded
# localload phases (solo, contended, duplicate, stream, SIGTERM
# chaos-drain), gate the fairness ratio and the bucket-quantized p99s
# against the lexically latest committed LOAD_*.json baseline in
# loadbaseline/, and write this run's artifact to the gitignored
# load-artifacts/ (DESIGN.md §12), so one run never gates the next. The
# in-process fairness e2e (TestMultiTenantFairnessE2E) runs in make race.
load:
	$(GO) build -o /tmp/localityd-load ./cmd/localityd
	$(GO) run ./cmd/localload -spawn -localityd-bin /tmp/localityd-load -baseline-dir loadbaseline -artifact-dir load-artifacts

# Regenerate the full-scale EXPERIMENTS.md tables (takes minutes).
experiments:
	$(GO) run ./cmd/localbench
