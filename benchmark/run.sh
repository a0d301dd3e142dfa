#!/bin/bash
# Builds dsmperf from this checkout's source and runs it with the given
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, the binary) goes under .bench_build/ in the checkout, so a run
# touches nothing outside it. The build is cached: only the first run in
# a checkout compiles.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: in its default mode the go command starts a detached
# child of itself that outlives the build; a run must leave no process.
echo off >"$build/config/go/telemetry/mode"
cd "$root"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/dsmperf" ./benchmark/dsmperf
exec "$build/dsmperf" "$@"
