#!/usr/bin/env bash
# Builds the benchmark and the wardserve binary from this checkout's source,
# then runs the benchmark with the given arguments, from the checkout root.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS NEW_RESULTS
#
# Build products, the Go build cache, scratch stores, span files and result
# files all stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
# The Go toolchain's caches, temporary files and configuration (telemetry
# counters included) stay inside the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/wardserve" wardrop/cmd/wardserve) >&2
exec "$build/bin/perfbench" "$@"
