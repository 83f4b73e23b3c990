GO ?= go

.PHONY: all build test vet lint lint-fast race fuzz-smoke bench experiments load

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static gate (CI, tier 1): standard go vet plus localvet, the in-repo
# multichecker that enforces the LOCAL-model determinism & purity contract
# (see DESIGN.md, "Model purity & static enforcement" and §11). One
# module-wide run gates (any finding exits non-zero and is listed on
# stderr) and writes localvet.sarif for code-scanning upload.
lint:
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
	$(GO) test -run='^$$' -fuzz=FuzzLCLCheck -fuzztime=5s ./internal/lcl
	$(GO) test -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzIdentityKey -fuzztime=5s ./internal/jobs
	$(GO) test -run='^$$' -fuzz=FuzzStoreRecord -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzReduce -fuzztime=5s ./internal/linial

# Perf trajectory: run the Go benchmarks (benchmarks only: the tests run
# in make test and make race) with allocation reporting, then
# time every experiment at quick scale and write BENCH_<stamp>.json next to
# the checked-in baseline (failing on a >25% ns/op regression when one
# exists; tune with -bench-regress — see cmd/localbench/bench.go), and
# finally trace a quick-scale sweep into bench-trace/ (one batch.commit
# span per batch, with its round counts) and check with localtrace that
# it assembles without orphans.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...
	$(GO) run ./cmd/localbench -bench-json
	rm -rf bench-trace
	$(GO) run ./cmd/localbench -quick -trace-dir bench-trace > /dev/null
	$(GO) run ./cmd/localtrace bench-trace > /dev/null

# Multi-tenant load gate (CI): the full out-of-process workload — build a
# localityd, spawn it with a two-tenant quota file, run the seeded
# localload phases (solo, contended, duplicate, stream, SIGTERM
# chaos-drain), gate the fairness ratio and the bucket-quantized p99s
# against the lexically latest LOAD_*.json baseline in loadbaseline/, and
# write this run's artifact next to it (DESIGN.md §12). The in-process
# fairness e2e (TestMultiTenantFairnessE2E) runs in make race.
load:
	$(GO) build -o /tmp/localityd-load ./cmd/localityd
	$(GO) run ./cmd/localload -spawn -localityd-bin /tmp/localityd-load -artifact-dir loadbaseline

# Regenerate the full-scale EXPERIMENTS.md tables (takes minutes).
experiments:
	$(GO) run ./cmd/localbench
