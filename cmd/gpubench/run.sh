#!/usr/bin/env bash
# Builds gpubench from the sources of the checkout it is run from, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash cmd/gpubench/run.sh --workload sim-e2e --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build and module caches, the go command's own
# configuration and telemetry files, and everything the benchmark writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C cmd/gpubench build -o "$out/gpubench" .
exec "$out/gpubench" "$@"
