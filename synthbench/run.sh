#!/usr/bin/env bash
# Builds the synthbench harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash synthbench/run.sh --workload quick-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, temporary files, the
# harness binary, and the harness's stores, traces and result files.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$src" build -o "$build/synthbench" .
exec "$build/synthbench" -dir "$build/synthbench.d" "$@"
