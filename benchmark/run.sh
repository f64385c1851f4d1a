#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash benchmark/run.sh --workload refactor-mt1 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go caches, the binary, backend data, traces) stays under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$here" && go build -o "$build/pastix-benchmark" .)
exec "$build/pastix-benchmark" "$@"
