GO ?= go

.PHONY: all build test vet lint lint-fast lint-sarif race race-kernel cluster fuzz-smoke bench experiments load store trace

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static gate (CI, tier 1): standard go vet plus localvet, the in-repo
# multichecker that enforces the LOCAL-model determinism & purity contract
# (see DESIGN.md, "Model purity & static enforcement" and §11). Runs against
# the committed baseline: grandfathered findings are tolerated while they
# burn down, anything new exits non-zero.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/localvet -baseline .localvet-baseline.json ./...

# Changed-package lint for the edit loop: runs localvet only on packages
# whose files differ from origin's main (falling back to HEAD for a detached
# or just-cloned tree). The module-wide call graph is still built from the
# targets' dependency cone, so interprocedural chains stay visible.
lint-fast:
	@base=$$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD); \
	dirs=$$(git diff --name-only $$base -- '*.go' | xargs -r -n1 dirname | sort -u \
	        | while read d; do [ -d "$$d" ] && echo "./$$d"; done); \
	if [ -z "$$dirs" ]; then echo "lint-fast: no changed Go packages"; \
	else echo "lint-fast: $$dirs"; $(GO) run ./cmd/localvet -baseline .localvet-baseline.json $$dirs; fi

# SARIF artifact for CI code-scanning upload and PR annotation.
lint-sarif:
	$(GO) run ./cmd/localvet -baseline .localvet-baseline.json -format sarif ./... > localvet.sarif; \
	code=$$?; [ $$code -le 1 ] && exit 0 || exit $$code

# Full-module race gate: every package under the race detector. The
# goroutine-per-node kernel packages are the likeliest offenders, but
# harness/experiment drivers spawn runs too, so CI sweeps everything.
race:
	$(GO) test -race ./...

# Narrower historical gate kept for fast local iteration on the kernel.
race-kernel:
	$(GO) vet ./...
	$(GO) test -race ./internal/sim/... ./internal/fault/...

# Cluster gate (CI): the fault-tolerant sharded mode under the race
# detector — coordinator merge/failover units, the in-process front-end
# wire test, and the multi-process kill-a-shard e2e that SIGKILLs one
# worker localityd mid-sweep and asserts the merged table is byte-identical
# with zero batches lost (DESIGN.md §10) — asserted on the coordinator's
# cluster.sweep span as well as on /metrics.
cluster:
	$(GO) test -race -count=1 ./internal/cluster ./internal/fault
	$(GO) test -race -count=1 -run 'TestCluster' -v ./cmd/localityd

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

# Perf trajectory: run the Go benchmarks with allocation reporting, then
# time every experiment at quick scale and write BENCH_<stamp>.json next to
# the checked-in baseline (failing on a >25% ns/op regression when one
# exists; tune with -bench-regress — see cmd/localbench/bench.go), and
# finally trace a quick-scale sweep into bench-trace/ (one batch.commit
# span per batch, with its round counts) and check with localtrace that
# it assembles without orphans.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...
	$(GO) run ./cmd/localbench -bench-json
	rm -rf bench-trace
	$(GO) run ./cmd/localbench -quick -trace-dir bench-trace > /dev/null
	$(GO) run ./cmd/localtrace bench-trace > /dev/null

# Multi-tenant load gate (CI): the fairness e2e under the race detector,
# then the full out-of-process workload — build a localityd, spawn it with
# a two-tenant quota file, run the seeded localload phases (solo, contended,
# duplicate, stream, SIGTERM chaos-drain), gate the fairness ratio and the
# bucket-quantized p99s against the lexically latest LOAD_*.json baseline
# in loadbaseline/, and write this run's artifact next to it (DESIGN.md §12).
load:
	$(GO) test -race -count=1 -run 'TestMultiTenantFairnessE2E' -v ./cmd/localityd
	$(GO) build -o /tmp/localityd-load ./cmd/localityd
	$(GO) run ./cmd/localload -spawn -localityd-bin /tmp/localityd-load -artifact-dir loadbaseline

# Result-store gate (CI): the content-addressed cache under the race
# detector — segment encode/decode, torn-tail and corruption recovery,
# eviction, concurrent access — plus the pool/daemon integration tests:
# the byte-identity differential (incl. kill-and-reopen), cache-hit SSE
# replay, retention eviction, and the across-restart HTTP serving test
# (DESIGN.md §13).
store:
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=1 -run 'TestStore|TestRetention' ./internal/jobs ./cmd/localityd

# Trace gate (CI): end-to-end deterministic tracing (DESIGN.md §14). The
# obsinert + nowallclock analyzers prove the tracer stays inert and its
# wall-clock reads confined to the sanctioned leaf; the trace package and
# localtrace CLI tests run under the race detector; then the tracing
# differentials, the check that batch.commit spans account for every
# simulator round (at 1 and 4 row workers), and the multi-process
# kill-a-shard trace e2e run — every
# process appends spans to one shared directory, and the causal tree must
# assemble with zero orphaned spans. With TRACE_ARTIFACT_DIR set, the e2e
# exports the merged per-process artifacts there and localtrace re-validates
# them from the command line — the same binary a human would point at a
# production trace directory is the final arbiter of the gate.
trace:
	$(GO) run ./cmd/localvet -only obsinert,nowallclock ./...
	$(GO) test -race -count=1 ./internal/obs/trace ./cmd/localtrace
	$(GO) test -race -count=1 -run 'TestTracerByteIdentity|TestBatchCommitRoundCounts|TestTraceHeaderConstantsAgree|TestRouteLatencyCoversEventsAndCheckpoint|TestSubmitExemplarLinksTrace|TestClusterTraceE2E' -v ./internal/jobs ./cmd/localityd
	@if [ -n "$$TRACE_ARTIFACT_DIR" ]; then $(GO) run ./cmd/localtrace "$$TRACE_ARTIFACT_DIR"; fi

# Regenerate the full-scale EXPERIMENTS.md tables (takes minutes).
experiments:
	$(GO) run ./cmd/localbench
