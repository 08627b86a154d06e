#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload open-poisson --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, telemetry settings) and the binary itself
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
# Telemetry off: the go command must not start a detached upload process.
printf 'off' >"$out/config/go/telemetry/mode"

export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

go -C "$root/bench" build -o "$out/meshbench" .
exec "$out/meshbench" "$@"
