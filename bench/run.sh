#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload discover-serial --seed 1 --seconds 25 --trace 0
#
# Everything the go command writes (build cache, temporary files, its
# config and telemetry) stays in .bench_build/ under the checkout. The
# build fails, and so does this script, outside a checkout holding the
# srcg module.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/srcg-bench" .
exec "$build/srcg-bench" "$@"
