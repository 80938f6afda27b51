#!/usr/bin/env bash
# Builds the benchmark and sunserver from this checkout's sources, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binaries, the serve
# workload's journals) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters (and any user
# go env file) out of the home directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

go build -o "$build/sunserver" ./cmd/sunserver
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -sunserver "$build/sunserver" -work "$build/work" -refs perfbench/refs "$@"
