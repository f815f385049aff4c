#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go build cache, temp
# files, the toolchain's telemetry counters) stays in .bench_build/
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# XDG_CONFIG_HOME: the go command keeps its counters under the user's
# config directory otherwise.
(cd "$root/bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
