#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json's command is "bash bench/run.sh"; arguments pass through.
# Everything it writes (Go's build cache, the binary, result files, scratch
# data directories) stays under the checkout, in .bench_build/ and bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/detbench" .
exec "$build/detbench" -out bench/out "$@"
