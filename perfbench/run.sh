#!/usr/bin/env bash
# Builds the benchmark and cmd/bpartd from this checkout's sources, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload iterate --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, span JSONL, request logs) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep the Go toolchain's caches and telemetry inside the checkout, and
# never let it reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
go build -C perfbench -o "$out/bpartd" bpart/cmd/bpartd >&2
exec "$out/perfbench" -bpartd "$out/bpartd" -out "$out" "$@"
