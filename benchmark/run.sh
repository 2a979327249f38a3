#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds plperf from source into
# .bench_build/ at the root of the checkout, then runs it with the
# arguments it was given. Everything the toolchain writes (build cache,
# temp files, the telemetry directory) is pointed inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the toolchain's usual home
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/plperf" .
exec "$build/plperf" "$@"
