#!/usr/bin/env bash
# Builds the benchmark and the localityd binary it drives from the source
# in this checkout, then runs one workload:
#
#   bash _perfbench/run.sh --workload sweep-plans --seed 2016 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The go command's caches, temporary files and telemetry all land under
# $out, and it never fetches a toolchain or a module.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/_perfbench" -o "$out/bin/perfbench" . >&2
go build -C "$root" -o "$out/bin/localityd" ./cmd/localityd >&2
exec "$out/bin/perfbench" -daemon "$out/bin/localityd" "$@"
