#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through (see perfbench/main.go for the flags):
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# directory it is started from, which must be the repository root.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
# The go command's cache, module path and telemetry counters (kept under
# the user config directory) all go to .bench_build/ too.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --work-dir "$work" "$@"
