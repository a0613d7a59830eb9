#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"), run from the root
# of a checkout: builds the harness from source into .bench_build/ with a Go
# build cache inside the checkout, then runs it with the driver's arguments.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/coral-bench" .
exec "$root/.bench_build/coral-bench" "$@"
