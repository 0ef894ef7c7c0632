#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything it writes (build cache, binary, data directories, traces)
# goes under .bench_build/ at the root of the checkout it is run from.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -out "$build" "$@"
