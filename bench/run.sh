#!/usr/bin/env bash
# The command BENCHMARK.json names, run from the root of a checkout:
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# It compiles the benchmark (a module of its own in this directory) and then
# runs it. Every file the toolchain and the benchmark write stays under
# .bench_build in the checkout, the Go build cache included.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$here" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
